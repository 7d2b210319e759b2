package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// TestCancelledPlanFallbackDeterministicAcrossParallelism plans with an
// already-cancelled context at parallelism 1 and 8: both must degrade to
// the greedy fallback and serialize to byte-identical plans — the
// fallback is a pure function of the profile, untouched by how many
// workers the doomed solve briefly employed.
func TestCancelledPlanFallbackDeterministicAcrossParallelism(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []model.Config{model.GPT8B, model.GPT15B} {
		baseline := map[int][]byte{}
		for _, par := range []int{1, 8} {
			opts := Options{
				Model:       m,
				Topology:    topo22(),
				MIP:         partition.MIPOptions{DisableCache: true},
				Parallelism: par,
			}
			plan, err := PlanMobiusCtx(ctx, opts)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", m.Name, par, err)
			}
			if !plan.Fallback {
				t.Fatalf("%s parallelism %d: cancelled plan did not fall back", m.Name, par)
			}
			if plan.FallbackReason == "" {
				t.Fatalf("%s parallelism %d: fallback without a reason", m.Name, par)
			}
			if err := plan.Validate(opts.Topology); err != nil {
				t.Fatalf("%s parallelism %d: fallback plan invalid: %v", m.Name, par, err)
			}
			data, err := MarshalPlan(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			baseline[par] = data
		}
		if !bytes.Equal(baseline[1], baseline[8]) {
			t.Errorf("%s: fallback plan differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				m.Name, baseline[1], baseline[8])
		}
	}
}

// TestGenerousDeadlineReproducesSeedPlan checks that a deadline with
// plenty of headroom changes nothing: the deadline-bearing plan is
// byte-identical to the unbounded one and never marked as a fallback.
func TestGenerousDeadlineReproducesSeedPlan(t *testing.T) {
	opts := Options{
		Model:    model.GPT8B,
		Topology: topo22(),
		MIP:      partition.MIPOptions{DisableCache: true, MaxStages: 12},
	}
	seed, err := PlanMobius(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	bounded, err := PlanMobiusCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Fallback {
		t.Fatalf("generous deadline triggered the fallback: %s", bounded.FallbackReason)
	}
	seed.MIPStats.SolveTime = 0
	bounded.MIPStats.SolveTime = 0
	a, err := MarshalPlan(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalPlan(bounded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("deadline-bearing plan differs from the seed plan:\n--- seed ---\n%s\n--- bounded ---\n%s", a, b)
	}
}

// TestTightDeadline51BFallsBackToValidPlan is the planner-deadline
// acceptance check: a 1ms deadline on the 51B model must yield a valid
// fallback plan (Validate passes) instead of an error.
func TestTightDeadline51BFallsBackToValidPlan(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	opts := Options{
		Model:    model.GPT51B,
		Topology: topo,
		MIP:      partition.MIPOptions{DisableCache: true},
	}
	plan, err := PlanMobiusCtx(ctx, opts)
	if err != nil {
		t.Fatalf("tight deadline must degrade, not fail: %v", err)
	}
	if !plan.Fallback {
		t.Skip("solver beat the 1ms deadline; nothing to degrade")
	}
	if err := plan.Validate(topo); err != nil {
		t.Fatalf("fallback plan failed validation: %v", err)
	}
	if plan.Partition.Algorithm != partition.AlgoGreedy {
		t.Errorf("fallback algorithm: got %q, want %q", plan.Partition.Algorithm, partition.AlgoGreedy)
	}
	if plan.PredictedStep <= 0 {
		t.Errorf("fallback plan has no predicted step time")
	}
}

// TestRunWithExpiredContextStillSimulates checks the end-to-end path: an
// expired planning context degrades the plan but the simulation itself
// still runs to completion and reports a step time.
func TestRunWithExpiredContextStillSimulates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunCtx(ctx, SystemMobius, Options{
		Model:    model.GPT8B,
		Topology: topo22(),
		MIP:      partition.MIPOptions{DisableCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan == nil || !r.Plan.Fallback {
		t.Fatal("expired context did not produce a fallback plan")
	}
	if r.OOM || r.StepTime <= 0 {
		t.Fatalf("fallback run did not simulate: oom=%v step=%v", r.OOM, r.StepTime)
	}
}

// TestDeadlineInterruptsRootLP plans 8B on Topo 4+4, whose S = 24 root
// LP alone takes about 370 ms on a 2-vCPU host (some 2,670 pivots), under
// a 100 ms deadline, with a serial sweep and with the default pool. The
// root bound leaves every candidate to its MILP, so the root phase
// solves the S = 8, 16 and 24 roots, and the sweep's cancel reaches into
// the simplex every 64 pivots, so the plan must degrade to the fallback
// within a second of the deadline instead of waiting the root LPs out.
// A plan within the deadline fails the test: the shape no longer
// reaches a root LP long enough to interrupt.
func TestDeadlineInterruptsRootLP(t *testing.T) {
	const deadline = 100 * time.Millisecond
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			plan, err := PlanMobiusCtx(ctx, Options{
				Model:       model.GPT8B,
				Topology:    topo,
				MIP:         partition.MIPOptions{DisableCache: true},
				Parallelism: par,
			})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Fallback {
				t.Fatalf("planned in %v, within the %v deadline: nothing to interrupt", elapsed.Round(time.Millisecond), deadline)
			}
			if elapsed > deadline+time.Second {
				t.Errorf("plan returned %v after a %v deadline, want within 1s of it", elapsed.Round(time.Millisecond), deadline)
			}
		})
	}
}

// TestPlanDeadlineStopsMapping plans 3B on Topo 6+6 with a balanced
// 12-stage partition, whose cross mapping search over 12! GPU orders
// runs for seconds unbounded, under a 100 ms deadline. The search stops
// on the deadline, so the plan must degrade to a valid fallback within
// 2 s instead of waiting the search out.
func TestPlanDeadlineStopsMapping(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 6, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	plan, err := PlanMobiusCtx(ctx, Options{
		Model:          model.GPT3B,
		Topology:       topo,
		PartitionAlgo:  partition.AlgoBalanced,
		BalancedStages: 12,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Fallback {
		t.Fatalf("plan did not fall back under a 100ms deadline (perm %v)", plan.Mapping.Perm)
	}
	if err := plan.Validate(topo); err != nil {
		t.Fatalf("fallback plan failed validation: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("plan returned %v after a 100ms deadline, want within 2s", elapsed.Round(time.Millisecond))
	}
}
