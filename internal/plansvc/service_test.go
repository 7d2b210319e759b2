package plansvc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"mobius/internal/core"
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

// blockingPlanner is a stub inner planner: it serves a prebuilt plan,
// counts invocations, and can hold solves until released. A solve whose
// context dies while blocked fails with the context's error, like the
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
			return nil, ctx.Err()
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
	if err := m.ConservationError(); err != nil {
		t.Error(err)
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
	if m.Solves != 1 {
		t.Errorf("Solves = %d, want 1", m.Solves)
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

	// Kill the leader. Its stub solve fails with the leader's context
	// error; the service must hand off instead of passing that error on.
	cancelLeader()
	lr := <-leaderDone
	if !errors.Is(lr.err, context.Canceled) || lr.plan != nil {
		t.Fatalf("cancelled leader: plan %v, error %v; want context.Canceled", lr.plan, lr.err)
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
	if m.Solves != 2 || stub.callCount() != 2 {
		t.Errorf("Solves = %d, inner calls = %d, want 2 (original leader + re-led waiter)", m.Solves, stub.callCount())
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

// TestDeadContextLeadFails: a request whose deadline expired before
// its solve leads, calls the real planner once, fails with an error
// wrapping context.Canceled and the planner's cancellation, and hands
// its key off uncached. A live request for the same key then solves and
// caches it, after which a dead-context request is a plain cache hit.
// The scenario replays bitwise.
func TestDeadContextLeadFails(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	run := func() (Metrics, []string) {
		svc := New(Config{})
		var outcomes []string
		for _, stages := range []int{4, 6, 8} {
			o := balancedOpts(model.GPT3B)
			o.BalancedStages = stages
			plan, err := svc.PlanMobius(dead, o)
			if !errors.Is(err, context.Canceled) || !errors.Is(err, partition.ErrCancelled) || plan != nil {
				t.Fatalf("%d stages, dead context: plan %v, error %v; want a cancellation", stages, plan, err)
			}
			outcomes = append(outcomes, err.Error())
		}
		live := balancedOpts(model.GPT8B)
		for _, ctx := range []context.Context{context.Background(), dead} {
			plan, err := svc.PlanMobius(ctx, live)
			if err != nil {
				t.Fatal(err)
			}
			outcomes = append(outcomes, Fingerprint(plan))
		}
		return svc.Metrics(), outcomes
	}

	m, outcomes := run()
	checkConservation(t, m)
	want := Metrics{Requests: 5, Hits: 1, Solves: 4, Handoffs: 3, CacheEntries: 1}
	if m != want {
		t.Errorf("metrics\n got  %+v\n want %+v", m, want)
	}
	if outcomes[3] != outcomes[4] {
		t.Errorf("the dead-context hit served %s, the live solve %s", outcomes[4], outcomes[3])
	}
	m2, outcomes2 := run()
	if m != m2 || !slices.Equal(outcomes, outcomes2) {
		t.Errorf("replay diverged:\n first  %+v %v\n replay %+v %v", m, outcomes, m2, outcomes2)
	}
}

// TestPlanIndependentOfCacheHistory: the plan a key gets does not
// depend on what the service planned before it. The 15B plan for Topo
// 1+2 (the machine left after losing GPU 1 on Topo 2+2, at the intact
// machine's four microbatches) is planned on a fresh service, then on a
// service that first planned the intact 4-GPU shape; both must return
// the same plan.
func TestPlanIndependentOfCacheHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("MIP solves in -short mode")
	}
	ctx := context.Background()
	full := core.Options{Model: model.GPT15B, Topology: topo22(), Microbatches: 4}
	surv, err := hw.ParseSpec("1+2")
	if err != nil {
		t.Fatal(err)
	}
	survivor := full
	survivor.Topology = surv

	fresh, err := New(Config{}).PlanMobius(ctx, survivor)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	if _, err := svc.PlanMobius(ctx, full); err != nil {
		t.Fatal(err)
	}
	after, err := svc.PlanMobius(ctx, survivor)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Fingerprint(after), Fingerprint(fresh); got != want {
		t.Errorf("survivor plan after the full plan: fingerprint %s (%d stages), want the fresh service's %s (%d stages)",
			got, len(after.Partition.Stages), want, len(fresh.Partition.Stages))
	}
}
