package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// requireCancelled fails the test unless err is a planning
// cancellation: it must wrap both partition.ErrCancelled and the
// context's own error, and come with no plan.
func requireCancelled(t *testing.T, what string, plan *Plan, err, cause error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: planned (%s) under a done context, want a cancellation error", what, plan.Partition.Algorithm)
	}
	if !errors.Is(err, partition.ErrCancelled) || !errors.Is(err, cause) {
		t.Fatalf("%s: error %q, want one wrapping %v and %v", what, err, partition.ErrCancelled, cause)
	}
	if plan != nil {
		t.Fatalf("%s: a cancelled plan came with a plan", what)
	}
}

// TestCancelledPlanFailsAtEveryParallelism plans with an
// already-cancelled context at parallelism 1 and 8: both must return the
// same cancellation error and no plan, however many workers the doomed
// solve briefly employed.
func TestCancelledPlanFailsAtEveryParallelism(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []model.Config{model.GPT8B, model.GPT15B} {
		msgs := map[int]string{}
		for _, par := range []int{1, 8} {
			plan, err := PlanMobiusCtx(ctx, Options{
				Model:       m,
				Topology:    topo22(),
				MIP:         partition.MIPOptions{DisableCache: true},
				Parallelism: par,
			})
			requireCancelled(t, fmt.Sprintf("%s parallelism %d", m.Name, par), plan, err, context.Canceled)
			msgs[par] = err.Error()
		}
		if msgs[1] != msgs[8] {
			t.Errorf("%s: cancellation differs between parallelism 1 and 8: %q vs %q", m.Name, msgs[1], msgs[8])
		}
	}
}

// TestGenerousDeadlineReproducesSeedPlan checks that a deadline with
// plenty of headroom changes nothing: the deadline-bearing plan is
// byte-identical to the unbounded one.
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

// TestRunWithExpiredContextFails checks the end-to-end path: an
// expired planning context fails the Mobius run with the planner's
// cancellation error instead of simulating some other plan.
func TestRunWithExpiredContextFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunCtx(ctx, SystemMobius, Options{
		Model:    model.GPT8B,
		Topology: topo22(),
		MIP:      partition.MIPOptions{DisableCache: true},
	})
	if err == nil || !errors.Is(err, partition.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("run under an expired context: report %v, error %v; want a cancellation error", r, err)
	}
}

// TestDeadlineInterruptsRootLP plans 8B on Topo 4+4, whose S = 24 root
// LP alone takes about 370 ms on a 2-vCPU host (some 2,670 pivots), under
// a 100 ms deadline, with a serial sweep and with the default pool. The
// root bound leaves every candidate to its MILP, so the root phase
// solves the S = 8, 16 and 24 roots, and the sweep's cancel reaches into
// the simplex every 64 pivots, so the plan must fail with a
// cancellation error within a second of the deadline instead of waiting
// the root LPs out.
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
			if err == nil {
				t.Fatalf("planned in %v, within the %v deadline: nothing to interrupt", elapsed.Round(time.Millisecond), deadline)
			}
			requireCancelled(t, "8B on Topo 4+4", plan, err, context.DeadlineExceeded)
			if elapsed > deadline+time.Second {
				t.Errorf("plan returned %v after a %v deadline, want within 1s of it", elapsed.Round(time.Millisecond), deadline)
			}
		})
	}
}

// TestPlanDeadlineStopsMapping plans 3B on Topo 6+6 with a balanced
// 12-stage partition, whose cross mapping search over 12! GPU orders
// runs for seconds unbounded, under a 100 ms deadline. The search stops
// on the deadline, so the plan must fail with a cancellation error
// within 2 s instead of waiting the search out.
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
	requireCancelled(t, "3B on Topo 6+6", plan, err, context.DeadlineExceeded)
	if elapsed > 2*time.Second {
		t.Errorf("plan returned %v after a 100ms deadline, want within 2s", elapsed.Round(time.Millisecond))
	}
}
