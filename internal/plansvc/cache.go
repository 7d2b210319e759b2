package plansvc

import (
	"fmt"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/planstore"
)

// entry is one cached plan. Cached plans are treated as immutable by
// the service and must be by callers.
type entry struct {
	plan *core.Plan
	// topo is the topology the plan was computed for; hits re-validate
	// against the requester's topology, which keys guarantee is
	// content-identical.
	topo *hw.Topology
	// fromStore marks an entry adopted from the persistent store at
	// warm start; hits on it count as warm-start hits.
	fromStore bool
}

// cacheGet returns the cached plan for key after re-validating it
// against the request's topology. A plan that fails validation —
// corrupt in place, or stale relative to the topology it is asked to
// serve — is dropped so the request degrades to a recompute. Caller
// holds s.mu.
func (s *Service) cacheGet(req *Request) (*core.Plan, bool) {
	e, ok := s.cache[req.Key]
	if !ok {
		return nil, false
	}
	if err := e.plan.Validate(req.Opts.Topology); err != nil {
		delete(s.cache, req.Key)
		s.storeDelete(req.Key)
		s.m.ValidateDrops++
		return nil, false
	}
	if e.fromStore {
		s.m.WarmHits++
	}
	return e.plan, true
}

// cachePut stores a non-degraded plan. The cache is unbounded: a
// planning job touches a few dozen keys. Caller holds s.mu.
func (s *Service) cachePut(req *Request, plan *core.Plan) {
	s.cache[req.Key] = &entry{plan: plan, topo: req.Opts.Topology}
	if s.cfg.Store != nil {
		// Write-behind: the record is queued here (under the service
		// lock, so enqueue order follows cache order) and lands on disk
		// asynchronously; a full queue drops the write, never the
		// request.
		s.cfg.Store.Put(planstore.Entry{
			Key:      planstore.Key(req.Key),
			Plan:     plan,
			Topology: req.Opts.Topology,
		})
	}
}

// storeDelete propagates a validation drop to the persistent store,
// keeping disk and memory coherent: an entry the cache dropped must not
// be resurrected by a restart. Caller holds s.mu.
func (s *Service) storeDelete(k Key) {
	if s.cfg.Store != nil {
		s.cfg.Store.Delete(planstore.Key(k))
	}
}

// Has reports whether a plan for key is cached right now — a peek: it
// counts no metric and does not re-validate. The cluster's
// plan-cache-affinity routing asks it before dispatching.
func (s *Service) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cache[key]
	return ok
}

// CheckInvariants verifies the structural invariants of the service's
// state: every cached plan is complete, non-degraded (fallback plans
// are never cached) and valid for its topology. The chaos harness calls
// it after every scenario.
func (s *Service) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.cache {
		if e.plan == nil {
			return fmt.Errorf("plansvc: cache entry %s holds a nil plan", k)
		}
		if e.plan.Fallback {
			return fmt.Errorf("plansvc: degraded plan cached under %s (%s)", k, e.plan.FallbackReason)
		}
		if err := e.plan.Validate(e.topo); err != nil {
			return fmt.Errorf("plansvc: cache entry %s invalid: %w", k, err)
		}
	}
	return nil
}
