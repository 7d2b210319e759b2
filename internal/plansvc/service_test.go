package plansvc

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

func topo22() *hw.Topology { return hw.Commodity(hw.RTX3090Ti, 2, 2) }

// balancedOpts is the cheapest real planning request: no MIP, no
// mapping search explosion.
func balancedOpts(m model.Config) core.Options {
	return core.Options{Model: m, Topology: topo22(), PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4}
}

// virtualTime is the injectable clock + sleep used by the deterministic
// tests: Sleep advances Now, so backoff and breaker cooldowns take no
// wall time and every replay sees the same timeline.
type virtualTime struct {
	mu     sync.Mutex
	t      time.Time
	sleeps []time.Duration
}

func newVirtualTime() *virtualTime {
	return &virtualTime{t: time.Unix(1_700_000_000, 0)}
}

func (v *virtualTime) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

func (v *virtualTime) Sleep(_ context.Context, d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.t = v.t.Add(d)
	v.sleeps = append(v.sleeps, d)
}

func (v *virtualTime) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.t = v.t.Add(d)
}

// blockingPlanner is a stub inner planner: it serves a prebuilt plan,
// counts invocations, and can hold solves until released. A solve whose
// context dies while blocked degrades to the greedy fallback, like the
// real planner.
type blockingPlanner struct {
	plan    *core.Plan
	mu      sync.Mutex
	calls   int
	gate    chan struct{} // nil: never block
	started chan struct{} // signaled once per solve that reaches the gate
}

func (p *blockingPlanner) PlanMobius(ctx context.Context, opts core.Options) (*core.Plan, error) {
	p.mu.Lock()
	p.calls++
	gate := p.gate
	p.mu.Unlock()
	if gate != nil {
		if p.started != nil {
			p.started <- struct{}{}
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return core.GreedyPlan(opts, "stub: context expired mid-solve")
		}
	}
	return p.plan, nil
}

func (p *blockingPlanner) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func stubPlan(t *testing.T) *core.Plan {
	t.Helper()
	plan, err := core.PlanMobius(balancedOpts(model.GPT3B))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// checkConservation asserts the metrics identity every quiescent
// snapshot must satisfy.
func checkConservation(t *testing.T, m Metrics) {
	t.Helper()
	if m.Requests != m.Hits+m.Led+m.Coalesced+m.WaitAborts {
		t.Errorf("conservation violated: Requests %d != Hits %d + Led %d + Coalesced %d + WaitAborts %d",
			m.Requests, m.Hits, m.Led, m.Coalesced, m.WaitAborts)
	}
}

// TestServiceDeterministicAcrossConcurrency drives the same request set
// through fresh services at concurrency 1, 4 and 8 and requires every
// returned plan to be fingerprint-identical per key, across goroutines,
// services and concurrency levels.
func TestServiceDeterministicAcrossConcurrency(t *testing.T) {
	requests := []core.Options{
		balancedOpts(model.GPT3B),
		balancedOpts(model.GPT8B),
		{Model: model.GPT8B, Topology: topo22(), PartitionAlgo: partition.AlgoMinStage},
		{Model: model.GPT8B, Topology: topo22()}, // full MIP
		{Model: model.GPT15B, Topology: topo22(), PartitionAlgo: partition.AlgoMaxStage},
	}
	keys := make([]Key, len(requests))
	for i, r := range requests {
		k, err := KeyOf(r)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	want := map[Key]string{} // fingerprint per key, fixed by the first run
	for _, conc := range []int{1, 4, 8} {
		svc := New(Config{})
		var (
			mu   sync.Mutex
			got  = map[Key]map[string]bool{}
			wg   sync.WaitGroup
			errs []error
		)
		for g := 0; g < conc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, r := range requests {
					plan, err := svc.PlanMobius(context.Background(), r)
					if err != nil {
						mu.Lock()
						errs = append(errs, fmt.Errorf("goroutine %d request %d: %w", g, i, err))
						mu.Unlock()
						return
					}
					mu.Lock()
					if got[keys[i]] == nil {
						got[keys[i]] = map[string]bool{}
					}
					got[keys[i]][Fingerprint(plan)] = true
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if len(errs) > 0 {
			t.Fatalf("conc %d: %v", conc, errs[0])
		}
		for i, k := range keys {
			fps := got[k]
			if len(fps) != 1 {
				t.Fatalf("conc %d: request %d produced %d distinct fingerprints", conc, i, len(fps))
			}
			var fp string
			for f := range fps {
				fp = f
			}
			if prev, ok := want[k]; ok && prev != fp {
				t.Errorf("conc %d: request %d fingerprint diverged across concurrency levels", conc, i)
			}
			want[k] = fp
		}
		m := svc.Metrics()
		checkConservation(t, m)
		if wantReq := uint64(conc * len(requests)); m.Requests != wantReq {
			t.Errorf("conc %d: %d requests counted, want %d", conc, m.Requests, wantReq)
		}
		if m.CacheEntries != uint64(len(requests)) {
			t.Errorf("conc %d: %d cache entries, want %d", conc, m.CacheEntries, len(requests))
		}
	}
}

// TestSingleFlightCoalesces: N concurrent requests for one key cost one
// inner solve; the waiters observe the leader's plan.
func TestSingleFlightCoalesces(t *testing.T) {
	stub := &blockingPlanner{
		plan:    stubPlan(t),
		gate:    make(chan struct{}),
		started: make(chan struct{}, 1),
	}
	svc := New(Config{Inner: stub})
	opts := balancedOpts(model.GPT3B)

	const N = 8
	var wg sync.WaitGroup
	plans := make([]*core.Plan, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = svc.PlanMobius(context.Background(), opts)
		}(i)
	}
	<-stub.started // the leader is inside the solve
	// Give the waiters time to pile onto the flight, then release.
	for {
		if m := svc.Metrics(); m.Requests == N {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stub.gate)
	wg.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if plans[i] != stub.plan {
			t.Fatalf("request %d did not observe the leader's plan", i)
		}
	}
	if got := stub.callCount(); got != 1 {
		t.Errorf("%d inner solves for %d concurrent requests, want 1", got, N)
	}
	m := svc.Metrics()
	checkConservation(t, m)
	if m.Led != 1 {
		t.Errorf("Led = %d, want 1", m.Led)
	}
	// Requests that arrived after the leader published hit the cache;
	// the rest coalesced. Either way nobody solved twice.
	if m.Coalesced+m.Hits != N-1 {
		t.Errorf("Coalesced %d + Hits %d != %d", m.Coalesced, m.Hits, N-1)
	}
}

// TestCancelledLeaderHandsOff: a leader whose context dies mid-solve
// must not poison the key — a waiter re-leads and gets the real plan.
func TestCancelledLeaderHandsOff(t *testing.T) {
	stub := &blockingPlanner{
		plan:    stubPlan(t),
		gate:    make(chan struct{}),
		started: make(chan struct{}, 2),
	}
	svc := New(Config{Inner: stub})
	opts := balancedOpts(model.GPT3B)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	type result struct {
		plan *core.Plan
		err  error
	}
	leaderDone := make(chan result, 1)
	go func() {
		p, err := svc.PlanMobius(leaderCtx, opts)
		leaderDone <- result{p, err}
	}()
	<-stub.started // leader is blocked in the solve

	waiterDone := make(chan result, 1)
	go func() {
		p, err := svc.PlanMobius(context.Background(), opts)
		waiterDone <- result{p, err}
	}()
	for {
		if m := svc.Metrics(); m.Requests == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the leader. Its stub solve degrades to greedy; the service
	// must hand off instead of publishing that degraded plan.
	cancelLeader()
	lr := <-leaderDone
	if lr.err != nil {
		t.Fatalf("leader: %v", lr.err)
	}
	if !lr.plan.Fallback {
		t.Fatalf("cancelled leader got a non-degraded plan")
	}

	// The waiter re-leads; release its solve.
	<-stub.started
	close(stub.gate)
	wr := <-waiterDone
	if wr.err != nil {
		t.Fatalf("waiter: %v", wr.err)
	}
	if wr.plan != stub.plan {
		t.Errorf("waiter got %v, want the real solved plan", wr.plan)
	}

	m := svc.Metrics()
	checkConservation(t, m)
	if m.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", m.Handoffs)
	}
	if m.Led != 2 {
		t.Errorf("Led = %d, want 2 (original leader + re-led waiter)", m.Led)
	}
	if stub.callCount() != 2 {
		t.Errorf("inner solves = %d, want 2", stub.callCount())
	}
}

// TestCorruptCacheEntryDegradesToRecompute: a cache hit is re-validated;
// an entry corrupted in place is dropped and the request recomputes.
func TestCorruptCacheEntryDegradesToRecompute(t *testing.T) {
	stub := &blockingPlanner{plan: stubPlan(t)}
	svc := New(Config{Inner: stub})
	opts := balancedOpts(model.GPT3B)

	if _, err := svc.PlanMobius(context.Background(), opts); err != nil {
		t.Fatal(err)
	}

	// Corrupt the cached entry: break the layer coverage invariant.
	req, err := NewRequest(opts)
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	e := svc.cache[req.Key]
	corrupt := *e.plan
	part := *corrupt.Partition
	part.Stages = part.Stages[:len(part.Stages)-1]
	corrupt.Partition = &part
	e.plan = &corrupt
	svc.mu.Unlock()

	plan, err := svc.PlanMobius(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(opts.Topology); err != nil {
		t.Fatalf("recomputed plan invalid: %v", err)
	}
	m := svc.Metrics()
	checkConservation(t, m)
	if m.ValidateDrops != 1 {
		t.Errorf("ValidateDrops = %d, want 1", m.ValidateDrops)
	}
	if stub.callCount() != 2 {
		t.Errorf("inner solves = %d, want 2 (original + recompute)", stub.callCount())
	}
	if m.Hits != 0 {
		t.Errorf("corrupt entry served as a hit")
	}
}

// TestRetryBackoffBreakerLadder drives injected transient solver
// failures through the full chain — retry, deterministic backoff,
// breaker trip, greedy-only, half-open probe, close — on a virtual
// clock, and replays the scenario to prove it is bitwise deterministic.
func TestRetryBackoffBreakerLadder(t *testing.T) {
	spec := &fault.Spec{
		Seed: 42,
		Planner: []fault.PlannerFault{
			// 3B requests always fail (well, with probability 1-1e-9)
			// until the per-request attempt cap; everything else is
			// clean.
			{Match: "3B", Probability: 0.999999999, LatencyMS: 2, MaxFailures: 16},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func() (Metrics, []time.Duration, []string, *virtualTime) {
		vt := newVirtualTime()
		svc := New(Config{
			Faults:           spec,
			MaxAttempts:      2,
			BreakerThreshold: 2,
			BreakerCooldown:  10 * time.Second,
			Now:              vt.Now,
			Sleep:            vt.Sleep,
		})
		var states []string
		ctx := context.Background()

		// Two distinct failing requests: each exhausts its attempts and
		// degrades to greedy; the second trips the breaker.
		a := balancedOpts(model.GPT3B)
		b := balancedOpts(model.GPT3B)
		b.BalancedStages = 6
		for _, o := range []core.Options{a, b} {
			plan, err := svc.PlanMobius(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Fallback {
				t.Fatalf("injected failures did not degrade the plan")
			}
			states = append(states, svc.BreakerState())
		}

		// Open: requests short to greedy without touching the solver.
		c := balancedOpts(model.GPT3B)
		c.BalancedStages = 8
		plan, err := svc.PlanMobius(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Fallback {
			t.Fatalf("open breaker served a non-degraded plan")
		}
		states = append(states, svc.BreakerState())

		// Past the cooldown, a clean request becomes the probe and
		// closes the breaker.
		vt.Advance(11 * time.Second)
		d := balancedOpts(model.GPT8B)
		plan, err = svc.PlanMobius(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Fallback {
			t.Fatalf("probe solve degraded unexpectedly")
		}
		states = append(states, svc.BreakerState())

		return svc.Metrics(), append([]time.Duration(nil), vt.sleeps...), states, vt
	}

	m, sleeps, states, _ := run()
	checkConservation(t, m)
	if m.InjectedFailures != 4 { // 2 failing requests x MaxAttempts 2
		t.Errorf("InjectedFailures = %d, want 4", m.InjectedFailures)
	}
	if m.Retries != 2 {
		t.Errorf("Retries = %d, want 2", m.Retries)
	}
	if m.GreedyFallbacks != 3 { // 2 exhaustions + 1 breaker short
		t.Errorf("GreedyFallbacks = %d, want 3", m.GreedyFallbacks)
	}
	if m.BreakerTrips != 1 || m.BreakerShorted != 1 || m.BreakerProbes != 1 {
		t.Errorf("breaker counters trips=%d shorted=%d probes=%d, want 1/1/1",
			m.BreakerTrips, m.BreakerShorted, m.BreakerProbes)
	}
	if m.Solves != 1 { // only the probe reached the solver
		t.Errorf("Solves = %d, want 1", m.Solves)
	}
	wantStates := []string{"closed", "open", "open", "closed"}
	for i, w := range wantStates {
		if states[i] != w {
			t.Errorf("breaker state after step %d = %s, want %s", i, states[i], w)
		}
	}

	// The sleeps are the injected 2ms latency before each attempt and the
	// jittered backoff before each retry (25ms·[1, 1.5) at attempt 0),
	// pinned to the nanosecond.
	wantSleeps := []time.Duration{2000000, 35738974, 2000000, 2000000, 27663392, 2000000}
	if !slices.Equal(sleeps, wantSleeps) {
		t.Errorf("sleeps = %d, want %d", sleeps, wantSleeps)
	}

	// The whole scenario replays bitwise.
	m2, sleeps2, states2, _ := run()
	if m != m2 {
		t.Errorf("metrics diverged across replays:\n first  %+v\n replay %+v", m, m2)
	}
	if len(sleeps) != len(sleeps2) {
		t.Fatalf("sleep counts diverged: %d vs %d", len(sleeps), len(sleeps2))
	}
	for i := range sleeps {
		if sleeps[i] != sleeps2[i] {
			t.Errorf("sleep %d diverged: %v vs %v", i, sleeps[i], sleeps2[i])
		}
	}
	for i := range states {
		if states[i] != states2[i] {
			t.Errorf("breaker state %d diverged: %s vs %s", i, states[i], states2[i])
		}
	}
}

// TestWarmStartUsesNearestIncumbent: with a 4-GPU MIP plan cached, a
// 3-GPU solve of the same model is warm-started — and the result is
// identical to a cold service's.
func TestWarmStartUsesNearestIncumbent(t *testing.T) {
	if testing.Short() {
		t.Skip("MIP solves in -short mode")
	}
	full := core.Options{Model: model.GPT8B, Topology: topo22()}
	lossy := core.Options{Model: model.GPT8B, Topology: hw.Commodity(hw.RTX3090Ti, 2, 1)}

	warm := New(Config{})
	if _, err := warm.PlanMobius(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	warmPlan, err := warm.PlanMobius(context.Background(), lossy)
	if err != nil {
		t.Fatal(err)
	}
	if m := warm.Metrics(); m.WarmStarts != 1 {
		t.Errorf("WarmStarts = %d, want 1", m.WarmStarts)
	}

	cold := New(Config{DisableWarm: true})
	coldPlan, err := cold.PlanMobius(context.Background(), lossy)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(warmPlan) != Fingerprint(coldPlan) {
		t.Errorf("warm-started plan differs from cold plan")
	}
	if warmPlan.PredictedStep != coldPlan.PredictedStep {
		t.Errorf("objective diverged: warm %v cold %v", warmPlan.PredictedStep, coldPlan.PredictedStep)
	}
}
