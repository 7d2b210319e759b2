package plansvc

import (
	"fmt"
	"time"

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
	// key is the entry's own cache key; LRU eviction breaks recency ties
	// by it.
	key Key
	// storedAt dates the entry for TTL expiry; lastUsed is the logical
	// recency stamp (service useSeq) the LRU sweep orders by.
	storedAt time.Time
	lastUsed uint64
	// fromStore marks an entry adopted from the persistent store at
	// warm start; hits on it count as warm-start hits.
	fromStore bool
}

// expired reports whether the entry has outlived the configured TTL at
// time now. A zero TTL never expires.
func (s *Service) expired(e *entry, now time.Time) bool {
	return s.cfg.CacheTTL > 0 && now.Sub(e.storedAt) >= s.cfg.CacheTTL
}

// cacheGet returns the cached plan for key after re-validating it
// against the request's topology. An entry past its TTL is evicted and
// the request recomputes; a plan that fails validation — corrupt in
// place, or stale relative to the topology it is asked to serve — is
// dropped so the request degrades to a recompute. Caller holds s.mu.
func (s *Service) cacheGet(req *Request) (*core.Plan, bool) {
	e, ok := s.cache[req.Key]
	if !ok {
		return nil, false
	}
	if s.expired(e, s.cfg.Now()) {
		delete(s.cache, req.Key)
		s.storeDelete(req.Key)
		s.m.EvictionsTTL++
		return nil, false
	}
	if err := e.plan.Validate(req.Opts.Topology); err != nil {
		delete(s.cache, req.Key)
		s.storeDelete(req.Key)
		s.m.ValidateDrops++
		return nil, false
	}
	s.useSeq++
	e.lastUsed = s.useSeq
	if e.fromStore {
		s.m.WarmHits++
	}
	return e.plan, true
}

// cachePut stores a non-degraded plan, then enforces the capacity bound:
// expired entries go first, then least-recently-used live entries (ties
// broken by key, so eviction order is deterministic under any map
// iteration order). Caller holds s.mu.
func (s *Service) cachePut(req *Request, plan *core.Plan) {
	s.useSeq++
	s.cache[req.Key] = &entry{
		plan:     plan,
		topo:     req.Opts.Topology,
		key:      req.Key,
		storedAt: s.cfg.Now(),
		lastUsed: s.useSeq,
	}
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
	s.evictOverCap()
}

// storeDelete propagates an eviction to the persistent store, keeping
// disk and memory coherent: an entry the ladder aged out must not be
// resurrected by a restart. Caller holds s.mu.
func (s *Service) storeDelete(k Key) {
	if s.cfg.Store != nil {
		s.cfg.Store.Delete(planstore.Key(k))
	}
}

// evictOverCap shrinks the cache back under CacheMaxEntries. Caller
// holds s.mu.
func (s *Service) evictOverCap() {
	max := s.cfg.CacheMaxEntries
	if max <= 0 || len(s.cache) <= max {
		return
	}
	now := s.cfg.Now()
	for k, e := range s.cache {
		if len(s.cache) <= max {
			return
		}
		if s.expired(e, now) {
			delete(s.cache, k)
			s.storeDelete(k)
			s.m.EvictionsTTL++
		}
	}
	for len(s.cache) > max {
		var victim *entry
		for _, e := range s.cache {
			if victim == nil || e.lastUsed < victim.lastUsed ||
				(e.lastUsed == victim.lastUsed && lessKey(e.key, victim.key)) {
				victim = e
			}
		}
		delete(s.cache, victim.key)
		s.storeDelete(victim.key)
		s.m.EvictionsLRU++
	}
}

// Has reports whether a validated plan for key is cached and unexpired
// right now — a peek: it bumps no recency and counts no metric. The
// cluster's plan-cache-affinity routing asks it before dispatching, so
// without a TTL it reads no clock.
func (s *Service) Has(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cache[key]
	return ok && (s.cfg.CacheTTL <= 0 || !s.expired(e, s.cfg.Now()))
}

// CheckInvariants verifies the structural invariants of the service's
// state: every cached plan is complete, non-degraded (fallback plans
// are never cached) and valid for its topology, and the cache respects
// its capacity bound. The chaos harness calls it after every scenario.
func (s *Service) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max := s.cfg.CacheMaxEntries; max > 0 && len(s.cache) > max {
		return fmt.Errorf("plansvc: cache holds %d entries over its %d-entry cap", len(s.cache), max)
	}
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

func lessKey(a, b Key) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
