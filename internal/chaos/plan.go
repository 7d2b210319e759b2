package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/plansvc"
)

// PlanHarness stress-tests the planning service the way the main
// harness stresses the integrity layer: from a single seed it derives a
// request sequence in which some requests arrive with an
// already-cancelled context (the deadline rung a /v1/plan request with
// a tiny deadline_ms reaches), drives it through a plansvc.Service on a
// virtual clock, and checks the invariants that must hold for every
// seed:
//
//   - every request returns a plan that validates on its topology (a
//     degraded request returns the greedy fallback, never an error);
//   - request conservation: every request is accounted as exactly one
//     of hit, led, coalesced or wait-abort;
//   - ladder conservation: every led request either solved or took the
//     greedy floor;
//   - deadline accounting: every handoff is a dead-context lead, and
//     every greedy answer is either a breaker short or a dead-context
//     lead;
//   - the cache never holds a degraded or invalid plan;
//   - replaying the seed reproduces metrics, breaker state and the
//     full returned-plan sequence bit for bit.
type PlanHarness struct {
	// Menu is the request set scenarios draw from; all requests are
	// solver-free partition algorithms so thousands of chaos plans cost
	// milliseconds, leaving the ladder logic — not the MIP — under
	// test.
	Menu []core.Options
}

// NewPlanHarness builds the default menu on the 2+2 commodity box.
func NewPlanHarness() *PlanHarness {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	var menu []core.Options
	for _, m := range []model.Config{model.GPT3B, model.GPT8B} {
		menu = append(menu,
			core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoMinStage},
			core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoMaxStage},
			core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4},
			core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoBalanced, BalancedStages: 8},
		)
	}
	return &PlanHarness{Menu: menu}
}

// PlanScenario is the derived configuration for one seed.
type PlanScenario struct {
	// Requests indexes the harness menu; Advances[i] is virtual time
	// inserted before request i (letting breaker cooldowns elapse), and
	// Dead[i] sends request i with an already-cancelled context.
	Requests []int
	Advances []time.Duration
	Dead     []bool
}

// PlanScenario derives the scenario for a seed. The dead-context rate
// varies per seed, so some seeds trip the breaker repeatedly and others
// never do.
func (h *PlanHarness) PlanScenario(seed int64) *PlanScenario {
	rng := rand.New(rand.NewSource(seed))
	deadRate := 0.2 + 0.6*rng.Float64()
	sc := &PlanScenario{}
	n := 20 + rng.Intn(21)
	for i := 0; i < n; i++ {
		sc.Requests = append(sc.Requests, rng.Intn(len(h.Menu)))
		var adv time.Duration
		if rng.Intn(4) == 0 {
			adv = time.Duration(rng.Intn(40)) * time.Second
		}
		sc.Advances = append(sc.Advances, adv)
		sc.Dead = append(sc.Dead, rng.Float64() < deadRate)
	}
	return sc
}

// deadContext is an already-cancelled context: a request sent with it
// reaches the ladder's deadline rung.
func deadContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// contextFor returns request i's context under the scenario.
func (sc *PlanScenario) contextFor(i int, dead context.Context) context.Context {
	if sc.Dead[i] {
		return dead
	}
	return context.Background()
}

// PlanRunStats is the deterministic outcome of one scenario execution.
type PlanRunStats struct {
	Metrics plansvc.Metrics
	Breaker string
	// PlanSeq fingerprints the full sequence of returned plans in
	// request order; replays must reproduce it exactly.
	PlanSeq string
	// DeadLeads counts dead-context requests answered by the greedy
	// floor: the ones that missed the cache and led.
	DeadLeads uint64
	// Greedy counts requests answered with a fallback plan.
	Greedy uint64
}

// PlanReport is the outcome of one planning-chaos seed.
type PlanReport struct {
	Seed     int64
	Scenario *PlanScenario
	Stats    PlanRunStats
}

func (r *PlanReport) String() string {
	m := r.Stats.Metrics
	return fmt.Sprintf("plan chaos seed %d: %d requests, %d solves, %d handoffs, %d greedy, %d trips (breaker %s)",
		r.Seed, m.Requests, m.Solves, m.Handoffs, m.GreedyFallbacks, m.BreakerTrips, r.Stats.Breaker)
}

// virtualClock advances only via Advance, so breaker cooldowns are
// deterministic and free.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (v *virtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

func (v *virtualClock) Advance(d time.Duration) {
	v.mu.Lock()
	v.t = v.t.Add(d)
	v.mu.Unlock()
}

// RunPlanning executes the planning-chaos scenario for a seed — serial
// execution, invariant checks, and a bitwise replay — and returns a
// non-nil error when any invariant is violated.
func (h *PlanHarness) RunPlanning(seed int64) (*PlanReport, error) {
	sc := h.PlanScenario(seed)
	first, err := h.execute(sc)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	if err := h.checkPlanInvariants(sc, first); err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	replay, err := h.execute(sc)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d replay: %w", seed, err)
	}
	if first != replay {
		return nil, fmt.Errorf("chaos: seed %d replay diverged:\n  first  %+v\n  replay %+v", seed, first, replay)
	}
	return &PlanReport{Seed: seed, Scenario: sc, Stats: first}, nil
}

// execute runs the scenario once on a fresh service and virtual clock.
func (h *PlanHarness) execute(sc *PlanScenario) (PlanRunStats, error) {
	vc := &virtualClock{t: time.Unix(1_700_000_000, 0)}
	svc := plansvc.New(plansvc.Config{Now: vc.Now})
	dead := deadContext()
	var st PlanRunStats
	seq := ""
	for i, mi := range sc.Requests {
		if sc.Advances[i] > 0 {
			vc.Advance(sc.Advances[i])
		}
		opts := h.Menu[mi]
		plan, err := svc.PlanMobius(sc.contextFor(i, dead), opts)
		if err != nil {
			return PlanRunStats{}, fmt.Errorf("request %d: %w", i, err)
		}
		if verr := plan.Validate(opts.Topology); verr != nil {
			return PlanRunStats{}, fmt.Errorf("request %d returned an invalid plan: %w", i, verr)
		}
		if plan.Fallback {
			st.Greedy++
			if sc.Dead[i] {
				st.DeadLeads++
			}
		}
		seq += plansvc.Fingerprint(plan)
	}
	if err := svc.CheckInvariants(); err != nil {
		return PlanRunStats{}, err
	}
	st.Metrics, st.Breaker, st.PlanSeq = svc.Metrics(), svc.BreakerState(), foldSeq(seq)
	return st, nil
}

// foldSeq collapses the concatenated fingerprint string to a short
// stable digest.
func foldSeq(s string) string {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// checkPlanInvariants asserts the ladder conservation identities on a
// quiescent serial run.
func (h *PlanHarness) checkPlanInvariants(sc *PlanScenario, st PlanRunStats) error {
	m := st.Metrics
	if err := m.ConservationError(); err != nil {
		return err
	}
	if m.Requests != uint64(len(sc.Requests)) {
		return fmt.Errorf("accounted %d requests, sent %d", m.Requests, len(sc.Requests))
	}
	// Serial execution never coalesces or aborts a wait.
	if m.Coalesced != 0 || m.WaitAborts != 0 {
		return fmt.Errorf("serial run coalesced=%d waitAborts=%d, want 0", m.Coalesced, m.WaitAborts)
	}
	// Every led request either solved or took the greedy floor; live
	// requests run on context.Background, so the solver never degrades
	// mid-flight.
	if m.Led != m.Solves+m.GreedyFallbacks {
		return fmt.Errorf("ladder conservation violated: Led %d != Solves %d + GreedyFallbacks %d", m.Led, m.Solves, m.GreedyFallbacks)
	}
	if m.DeadlineFallbacks != 0 {
		return fmt.Errorf("deadline fallbacks on a virtual clock: %d", m.DeadlineFallbacks)
	}
	// Every handoff is a dead-context lead, and every dead-context lead
	// hands off.
	if m.Handoffs != st.DeadLeads {
		return fmt.Errorf("handoff accounting violated: Handoffs %d != dead-context leads %d", m.Handoffs, st.DeadLeads)
	}
	// Every greedy answer is a breaker short or a dead-context lead: a
	// live request degrades only when shorted.
	if m.GreedyFallbacks != st.Greedy {
		return fmt.Errorf("greedy accounting violated: GreedyFallbacks %d != fallback answers %d", m.GreedyFallbacks, st.Greedy)
	}
	if live := st.Greedy - st.DeadLeads; live > m.BreakerShorted || m.BreakerShorted > st.Greedy {
		return fmt.Errorf("%d live greedy answer(s), %d breaker short(s), %d greedy answer(s): want live <= shorts <= greedy",
			live, m.BreakerShorted, st.Greedy)
	}
	// The greedy answers not shorted are the deadline rung's breaker
	// failures; every trip follows at least one.
	if failures := m.GreedyFallbacks - m.BreakerShorted; m.BreakerTrips > failures {
		return fmt.Errorf("breaker tripped %d time(s) on %d deadline failure(s)", m.BreakerTrips, failures)
	}
	// A breaker short implies the breaker tripped at least once.
	if m.BreakerShorted > 0 && m.BreakerTrips == 0 {
		return fmt.Errorf("breaker shorted %d request(s) without ever tripping", m.BreakerShorted)
	}
	return nil
}

// RunPlanningConcurrent re-executes the scenario's request set with
// conc goroutines on a fresh service. Outcome counts are
// schedule-dependent (the breaker is shared global state), but the
// structural invariants are not: conservation, ladder accounting and
// cache validity must hold under any interleaving, and the only errors
// are dead-context waiters giving up (one per wait-abort) — this is the
// -race surface for single-flight, handoff and breaker state.
func (h *PlanHarness) RunPlanningConcurrent(seed int64, conc int) error {
	sc := h.PlanScenario(seed)
	vc := &virtualClock{t: time.Unix(1_700_000_000, 0)}
	svc := plansvc.New(plansvc.Config{Now: vc.Now})
	dead := deadContext()
	var wg sync.WaitGroup
	errs := make([]error, conc)
	var aborted atomic.Uint64
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, mi := range sc.Requests {
				opts := h.Menu[(mi+g)%len(h.Menu)]
				plan, err := svc.PlanMobius(sc.contextFor(i, dead), opts)
				if err != nil && sc.Dead[i] && errors.Is(err, context.Canceled) {
					aborted.Add(1)
					continue
				}
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d request %d: %w", g, i, err)
					return
				}
				if verr := plan.Validate(opts.Topology); verr != nil {
					errs[g] = fmt.Errorf("goroutine %d request %d invalid plan: %w", g, i, verr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("chaos: seed %d concurrent: %w", seed, err)
		}
	}
	if err := svc.CheckInvariants(); err != nil {
		return fmt.Errorf("chaos: seed %d concurrent: %w", seed, err)
	}
	m := svc.Metrics()
	if err := m.ConservationError(); err != nil {
		return fmt.Errorf("chaos: seed %d concurrent: %w", seed, err)
	}
	if m.Led != m.Solves+m.GreedyFallbacks {
		return fmt.Errorf("chaos: seed %d concurrent: Led %d != Solves %d + GreedyFallbacks %d",
			seed, m.Led, m.Solves, m.GreedyFallbacks)
	}
	if m.WaitAborts != aborted.Load() {
		return fmt.Errorf("chaos: seed %d concurrent: WaitAborts %d != %d cancelled answers", seed, m.WaitAborts, aborted.Load())
	}
	return nil
}
