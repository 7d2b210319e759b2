package plansvc

import (
	"context"
	"sync"
	"time"

	"mobius/internal/core"
	"mobius/internal/planstore"
	"mobius/internal/resil"
)

// Config tunes a Service. The zero value is usable: direct planner,
// no persistence, real clock.
type Config struct {
	// Inner computes plans on cache misses (default: the direct
	// core.PlanMobiusCtx planner).
	Inner core.Planner
	// Store, when non-nil, persists the plan cache: New warm-starts
	// from it (replaying, re-validating and adopting every intact
	// record), cacheable plans are written behind it, and an entry
	// dropped because it failed validation on a hit is deleted on disk
	// too, so a restart can never resurrect it. A damaged or empty
	// store degrades to a cold start — persistence never fails a
	// request. The Service does not own the store; the caller closes it
	// (after the Service is quiescent) to drain the write-behind queue.
	Store *planstore.Store
	// Now is the breaker's clock; the package's tests substitute a
	// virtual clock to drive the cooldown deterministically. Default:
	// time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Inner == nil {
		c.Inner = core.DefaultPlanner()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// The circuit breaker trips after breakerThreshold consecutive deadline
// blowups and stays open for breakerCooldown before admitting a
// half-open probe.
const (
	breakerThreshold = 3
	breakerCooldown  = 30 * time.Second
)

// Service is the hardened planning front end; see the package comment
// for the contract. It implements core.Planner, so core.Options.Planner
// and elastic.Config.Planner can route everything through one shared
// instance. All methods are safe for concurrent use, and the plans a
// Service returns must be treated as immutable — they are shared across
// requests.
type Service struct {
	cfg Config

	mu      sync.Mutex
	cache   map[Key]*entry
	flights map[Key]*flight
	// breaker runs on the service clock as a Duration since epoch, the
	// first cfg.Now(): integer nanoseconds, so its cooldown test is the
	// exact now.Sub(openedAt) >= cooldown.
	breaker resil.Breaker[time.Duration]
	epoch   time.Time
	m       Metrics
}

var _ core.Planner = (*Service)(nil)

// New builds a Service. With a persistent store configured it starts
// warm: the store directory is replayed and every intact, validated
// record adopted into the cache before the first request.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   make(map[Key]*entry),
		flights: make(map[Key]*flight),
		breaker: resil.Breaker[time.Duration]{Threshold: breakerThreshold, Cooldown: breakerCooldown},
		epoch:   cfg.Now(),
	}
	s.warmStart()
	return s
}

// warmStart replays the persistent store into the cache. Load failures
// and quarantined records degrade toward a cold start entry by entry —
// warm restart is an optimization, never a correctness dependency.
func (s *Service) warmStart() {
	if s.cfg.Store == nil {
		return
	}
	entries, _, err := s.cfg.Store.Load()
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.cache[Key(e.Key)] = &entry{plan: e.Plan, topo: e.Topology, fromStore: true}
		s.m.WarmStartEntries++
	}
}

// StoreMetrics snapshots the persistent store's counters; nil when the
// service runs without persistence.
func (s *Service) StoreMetrics() *planstore.Metrics {
	if s.cfg.Store == nil {
		return nil
	}
	m := s.cfg.Store.Metrics()
	return &m
}

// flight is one in-progress solve; waiters block on done. When handoff
// is set the leader's context died before it produced a cacheable
// result: nothing is published and waiters re-enter the cache/lead
// loop.
type flight struct {
	done    chan struct{}
	plan    *core.Plan
	err     error
	handoff bool
}

// PlanMobius serves one planning request through the ladder:
// validated cache hit, single-flight coalescing, cold solve, greedy
// floor.
func (s *Service) PlanMobius(ctx context.Context, opts core.Options) (*core.Plan, error) {
	req, err := NewRequest(opts)
	if err != nil {
		return nil, err
	}
	return s.plan(ctx, req)
}

func (s *Service) plan(ctx context.Context, req *Request) (*core.Plan, error) {
	s.mu.Lock()
	s.m.Requests++
	for {
		if p, ok := s.cacheGet(req); ok {
			s.m.Hits++
			s.mu.Unlock()
			return p, nil
		}
		f, inflight := s.flights[req.Key]
		if !inflight {
			break
		}
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			s.mu.Lock()
			s.m.WaitAborts++
			s.mu.Unlock()
			return nil, ctx.Err()
		}
		s.mu.Lock()
		if f.handoff {
			continue // leader's context died; re-check the cache, maybe lead
		}
		s.m.Coalesced++
		s.mu.Unlock()
		return f.plan, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[req.Key] = f
	s.m.Led++
	s.mu.Unlock()

	plan, err := s.solve(ctx, req)

	s.mu.Lock()
	delete(s.flights, req.Key)
	switch {
	case err == nil && plan != nil && !plan.Fallback:
		s.cachePut(req, plan)
		f.plan = plan
	case ctx.Err() != nil:
		// Degraded or failed because our own deadline died; waiters may
		// hold live deadlines, so hand the key off instead of poisoning
		// it with this result.
		f.handoff = true
		s.m.Handoffs++
	default:
		f.plan, f.err = plan, err
	}
	s.mu.Unlock()
	close(f.done)
	return plan, err
}

// solve runs the degradation ladder below the cache: breaker gate,
// cold solve, greedy floor. It never holds s.mu across a solve.
func (s *Service) solve(ctx context.Context, req *Request) (*core.Plan, error) {
	now := s.clock()
	s.mu.Lock()
	ok, probe := s.breaker.Allow(now)
	if !ok {
		s.m.BreakerShorted++
		s.m.GreedyFallbacks++
		s.mu.Unlock()
		return s.greedy(req, "plansvc: circuit breaker open: planning degraded to greedy")
	}
	if probe {
		s.m.BreakerProbes++
	}
	s.mu.Unlock()

	if ctx.Err() != nil {
		// The deadline burned down before the solver even started (a
		// tiny deadline): take the greedy floor rather than a solve that
		// is certain to degrade.
		s.breakerFailure()
		s.count(func(m *Metrics) { m.GreedyFallbacks++ })
		return s.greedy(req, "plansvc: deadline expired before solve ("+ctx.Err().Error()+")")
	}

	s.count(func(m *Metrics) { m.Solves++ })
	plan, err := s.cfg.Inner.PlanMobius(ctx, req.Opts)
	if err != nil {
		// A structural planner error (invalid model, infeasible
		// problem) is the caller's to see; the breaker watches
		// planning health, not input validity.
		return nil, err
	}
	if plan.Fallback {
		// The solver itself hit the deadline and degraded: a blowup
		// for breaker purposes, but already the ladder's floor.
		s.breakerFailure()
		s.count(func(m *Metrics) { m.DeadlineFallbacks++ })
		return plan, nil
	}
	s.mu.Lock()
	s.breaker.Success()
	s.mu.Unlock()
	return plan, nil
}

// greedy is the ladder floor: the deterministic greedy partition with a
// sequential mapping, no solver involved. Its plans carry Fallback and
// are never cached.
func (s *Service) greedy(req *Request, reason string) (*core.Plan, error) {
	return core.GreedyPlan(req.Opts, reason)
}

// clock is the breaker's now: the service clock as a Duration since
// epoch.
func (s *Service) clock() time.Duration { return s.cfg.Now().Sub(s.epoch) }

func (s *Service) breakerFailure() {
	now := s.clock()
	s.mu.Lock()
	if s.breaker.Failure(now) {
		s.m.BreakerTrips++
	}
	s.mu.Unlock()
}

func (s *Service) count(f func(*Metrics)) {
	s.mu.Lock()
	f(&s.m)
	s.mu.Unlock()
}

// BreakerState reports the breaker's current position (for tests,
// metrics endpoints and operator introspection).
func (s *Service) BreakerState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breaker.State()
}
