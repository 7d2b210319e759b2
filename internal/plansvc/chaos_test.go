package plansvc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// planHarness stress-tests the planning service the way the
// simulator's chaos harness stresses the integrity layer: from a single
// seed it derives a request sequence in which some requests arrive with
// an already-cancelled context (what a /v1/plan request with a tiny
// deadline_ms amounts to), drives it through a Service, and checks the
// invariants that must hold for every seed:
//
//   - every live request returns a plan that validates on its topology;
//   - a dead-context request is a cache hit or fails with
//     context.Canceled — it is never served a plan it did not solve;
//   - request conservation: every request is accounted as exactly one
//     of hit, solve, coalesced or wait-abort;
//   - every handoff is a dead-context lead, and every dead-context lead
//     hands off;
//   - the cache never holds an invalid plan;
//   - replaying the seed reproduces metrics and the full sequence of
//     returned plans and errors bit for bit.
type planHarness struct {
	// Menu is the request set scenarios draw from; all requests are
	// solver-free partition algorithms so thousands of chaos plans cost
	// milliseconds, leaving the service logic — not the MIP — under
	// test.
	Menu []core.Options
}

// newPlanHarness builds the default menu on the 2+2 commodity box.
func newPlanHarness() *planHarness {
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
	return &planHarness{Menu: menu}
}

// planScenario is the derived configuration for one seed.
type planScenario struct {
	// Requests indexes the harness menu, and Dead[i] sends request i
	// with an already-cancelled context.
	Requests []int
	Dead     []bool
}

// PlanScenario derives the scenario for a seed. The dead-context rate
// varies per seed, so some seeds mostly miss and others mostly hit.
func (h *planHarness) PlanScenario(seed int64) *planScenario {
	rng := rand.New(rand.NewSource(seed))
	deadRate := 0.2 + 0.6*rng.Float64()
	sc := &planScenario{}
	n := 20 + rng.Intn(21)
	for i := 0; i < n; i++ {
		sc.Requests = append(sc.Requests, rng.Intn(len(h.Menu)))
		sc.Dead = append(sc.Dead, rng.Float64() < deadRate)
	}
	return sc
}

// deadContext is an already-cancelled context.
func deadContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// contextFor returns request i's context under the scenario.
func (sc *planScenario) contextFor(i int, dead context.Context) context.Context {
	if sc.Dead[i] {
		return dead
	}
	return context.Background()
}

// planRunStats is the deterministic outcome of one scenario execution.
type planRunStats struct {
	Metrics Metrics
	// PlanSeq fingerprints the full sequence of returned plans and
	// errors in request order; replays must reproduce it exactly.
	PlanSeq string
	// DeadLeads counts dead-context requests that missed the cache, led
	// and failed; DeadHits counts those served from the cache.
	DeadLeads, DeadHits uint64
}

// planReport is the outcome of one planning-chaos seed.
type planReport struct {
	Seed     int64
	Scenario *planScenario
	Stats    planRunStats
}

func (r *planReport) String() string {
	m := r.Stats.Metrics
	return fmt.Sprintf("plan chaos seed %d: %d requests, %d hits (%d dead-context), %d solves, %d handoffs",
		r.Seed, m.Requests, m.Hits, r.Stats.DeadHits, m.Solves, m.Handoffs)
}

// RunPlanning executes the planning-chaos scenario for a seed — serial
// execution, invariant checks, and a bitwise replay — and returns a
// non-nil error when any invariant is violated.
func (h *planHarness) RunPlanning(seed int64) (*planReport, error) {
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
	return &planReport{Seed: seed, Scenario: sc, Stats: first}, nil
}

// execute runs the scenario once on a fresh service.
func (h *planHarness) execute(sc *planScenario) (planRunStats, error) {
	svc := New(Config{})
	dead := deadContext()
	var st planRunStats
	seq := ""
	for i, mi := range sc.Requests {
		opts := h.Menu[mi]
		hits := svc.Metrics().Hits
		plan, err := svc.PlanMobius(sc.contextFor(i, dead), opts)
		hit := svc.Metrics().Hits > hits
		switch {
		case err != nil && sc.Dead[i] && errors.Is(err, context.Canceled):
			st.DeadLeads++
			seq += err.Error()
			continue
		case err != nil:
			return planRunStats{}, fmt.Errorf("request %d (dead context %v): %w", i, sc.Dead[i], err)
		case sc.Dead[i] && !hit:
			return planRunStats{}, fmt.Errorf("request %d: a dead-context request was served a plan it did not find in the cache", i)
		case sc.Dead[i]:
			st.DeadHits++
		}
		if verr := plan.Validate(opts.Topology); verr != nil {
			return planRunStats{}, fmt.Errorf("request %d returned an invalid plan: %w", i, verr)
		}
		seq += Fingerprint(plan)
	}
	if err := svc.CheckInvariants(); err != nil {
		return planRunStats{}, err
	}
	st.Metrics, st.PlanSeq = svc.Metrics(), foldSeq(seq)
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

// checkPlanInvariants asserts the accounting identities on a quiescent
// serial run.
func (h *planHarness) checkPlanInvariants(sc *planScenario, st planRunStats) error {
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
	// Every handoff is a dead-context lead, and every dead-context lead
	// hands off.
	if m.Handoffs != st.DeadLeads {
		return fmt.Errorf("handoff accounting violated: Handoffs %d != dead-context leads %d", m.Handoffs, st.DeadLeads)
	}
	return nil
}

// RunPlanningConcurrent re-executes the scenario's request set with
// conc goroutines on a fresh service. Outcome counts are
// schedule-dependent, but the structural invariants are not:
// conservation and cache validity must hold under any interleaving,
// live requests always get a valid plan, and the only errors are
// dead-context requests failing with context.Canceled, each a waiter
// giving up or a leader handing its key off — this is the -race surface
// for single-flight and handoff.
func (h *planHarness) RunPlanningConcurrent(seed int64, conc int) error {
	sc := h.PlanScenario(seed)
	svc := New(Config{})
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
	if m.WaitAborts+m.Handoffs != aborted.Load() {
		return fmt.Errorf("chaos: seed %d concurrent: WaitAborts %d + Handoffs %d != %d cancelled answers",
			seed, m.WaitAborts, m.Handoffs, aborted.Load())
	}
	return nil
}

// TestPlanningChaosSeeds drives seed-derived deadline scenarios through
// the planning service: a randomized request sequence in which a seeded
// subset of requests arrives already cancelled. Each seed asserts the
// accounting identities, cache validity, and a bitwise replay.
func TestPlanningChaosSeeds(t *testing.T) {
	h := newPlanHarness()
	var deadLeads, deadHits uint64
	for seed := int64(1); seed <= 24; seed++ {
		rep, err := h.RunPlanning(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		deadLeads += rep.Stats.DeadLeads
		deadHits += rep.Stats.DeadHits
		t.Log(rep)
	}
	// Coverage: across the seed sweep a dead context must have both led
	// and hit, or the harness is testing nothing.
	if deadLeads == 0 {
		t.Error("no seed led a request with a dead context")
	}
	if deadHits == 0 {
		t.Error("no seed served a dead-context request from the cache")
	}
}

// TestPlanningChaosConcurrent runs the same scenarios with goroutine
// fan-out. Outcome counts are schedule-dependent, so only structural
// invariants are asserted — this is the -race surface for the
// single-flight table and the handoff.
func TestPlanningChaosConcurrent(t *testing.T) {
	h := newPlanHarness()
	for seed := int64(1); seed <= 8; seed++ {
		if err := h.RunPlanningConcurrent(seed, 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
