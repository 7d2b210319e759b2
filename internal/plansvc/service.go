package plansvc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/planstore"
	"mobius/internal/resil"
)

// Config tunes a Service. The zero value is usable: direct planner,
// no fault injection, default retry/backoff/breaker parameters, real
// clock.
type Config struct {
	// Inner computes plans on cache misses (default: the direct
	// core.PlanMobiusCtx planner).
	Inner core.Planner
	// Faults injects planner-side latency and transient failures via
	// its planner clauses (fault.Spec.PlannerAttempt); nil injects
	// nothing.
	Faults *fault.Spec
	// MaxAttempts bounds solve attempts per request, injected transient
	// failures included (default 4: one try, three retries). Retry k
	// sleeps 25ms·2^k capped at 2s, stretched by a deterministic
	// per-key jitter in [1, 1.5).
	MaxAttempts int
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker (default 3); BreakerCooldown is how long it stays
	// open before admitting a half-open probe (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// CacheTTL bounds a cached plan's lifetime: an entry older than the
	// TTL is evicted on its next lookup (and by the capacity sweep) and
	// the request recomputes. Zero means entries never expire. Plans are
	// pure functions of their inputs, so a TTL is about bounding memory
	// in long-lived fleets, not staleness of content.
	CacheTTL time.Duration
	// CacheMaxEntries caps the plan cache size; inserting past the cap
	// evicts expired entries first, then the least-recently-used live
	// entry. Zero means unbounded.
	CacheMaxEntries int
	// Store, when non-nil, persists the plan cache: New warm-starts
	// from it (replaying, re-validating and adopting every intact
	// record), cacheable plans are written behind it, and every
	// eviction path deletes the on-disk record too, so a restart can
	// never resurrect an entry the ladder aged out. A damaged or empty
	// store degrades to a cold start — persistence never fails a
	// request. The Service does not own the store; the caller closes it
	// (after the Service is quiescent) to drain the write-behind queue.
	Store *planstore.Store
	// Now and Sleep are the service's clock; tests and the chaos
	// harness substitute a virtual clock to drive backoff and breaker
	// cooldowns deterministically. Sleep must return early when ctx
	// dies. Defaults: time.Now and a timer-based sleep.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Inner == nil {
		c.Inner = core.DefaultPlanner()
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = realSleep
	}
	return c
}

// The retry ladder's resil.Backoff base and cap.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

func realSleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

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
	useSeq  uint64 // logical recency clock; bumped on every cache use
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
		breaker: resil.Breaker[time.Duration]{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown},
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
	now := s.cfg.Now()
	for _, e := range entries {
		s.useSeq++
		s.cache[Key(e.Key)] = &entry{
			plan:      e.Plan,
			topo:      e.Topology,
			key:       Key(e.Key),
			storedAt:  now,
			lastUsed:  s.useSeq,
			fromStore: true,
		}
		s.m.WarmStartEntries++
	}
	// The capacity bound holds across restarts too; over-cap adoptees
	// are evicted (and their records deleted) like any live entry.
	s.evictOverCap()
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
// validated cache hit, single-flight coalescing, cold solve with
// retries, greedy floor.
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
// bounded retries over injected transient failures, cold solve, greedy
// floor. It never holds s.mu across a solve or a sleep.
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

	for attempt := 0; ; attempt++ {
		lat, failInj := s.cfg.Faults.PlannerAttempt(req.Opts.Model.Name, req.Key.Uint64(), attempt)
		if lat > 0 {
			s.cfg.Sleep(ctx, time.Duration(lat*float64(time.Second)))
		}
		if failInj {
			s.count(func(m *Metrics) { m.InjectedFailures++ })
			if attempt+1 >= s.cfg.MaxAttempts {
				s.breakerFailure()
				s.count(func(m *Metrics) { m.GreedyFallbacks++ })
				return s.greedy(req, fmt.Sprintf("plansvc: %d transient solver failures, retries exhausted", attempt+1))
			}
			s.count(func(m *Metrics) { m.Retries++ })
			s.cfg.Sleep(ctx, backoff(req.Key, attempt))
			continue
		}
		if ctx.Err() != nil {
			// The deadline burned down before the solver even started
			// (injected latency, backoff, or a tiny deadline): take the
			// greedy floor rather than a solve that is certain to degrade.
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
}

// greedy is the ladder floor: the deterministic greedy partition with a
// sequential mapping, no solver involved. Its plans carry Fallback and
// are never cached.
func (s *Service) greedy(req *Request, reason string) (*core.Plan, error) {
	return core.GreedyPlan(req.Opts, reason)
}

// backoff is the sleep before retry attempt+1: exponential in the
// attempt with a deterministic jitter derived from the request key, so
// replays of a scenario back off identically while distinct keys
// desynchronize.
func backoff(key Key, attempt int) time.Duration {
	frac := resil.Unit(resil.Mix(key.Uint64()^(uint64(attempt)+1)*0x9e3779b97f4a7c15, 0))
	return time.Duration(resil.Backoff(float64(backoffBase), float64(backoffMax), attempt, frac))
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
