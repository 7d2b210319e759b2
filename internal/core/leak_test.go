package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// TestPlanCancellationLeaksNoGoroutines audits PlanMobiusCtx's worker
// shutdown: planning with contexts that are cancelled before, during and
// after the MIP sweep must leave no worker or feeder goroutines behind.
// The sweep joins its root phase and its pool on every exit path
// (including the patience break and the all-or-nothing cancellation
// return), so the goroutine count must return to its pre-planning
// baseline.
func TestPlanCancellationLeaksNoGoroutines(t *testing.T) {
	// 3B on two GPUs sweeps twelve candidates, S = 2 to 24, several of
	// which its MILPs must resolve, and its patience rule stops the sweep
	// before S = 24, so at Parallelism 4 and 8 workers solve ahead and
	// the verdict cancels work that is in flight.
	topo := hw.Commodity(hw.RTX3090Ti, 2)
	const maxStages = 24
	// Warm the profiler/caches once so the baseline is not polluted by
	// lazily started runtime helpers.
	if _, err := PlanMobius(Options{Model: model.GPT3B, Topology: topo}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	plan := func(ctx context.Context, opts Options) *Plan {
		plan, err := PlanMobiusCtx(ctx, opts)
		if err != nil {
			t.Fatalf("%s, parallelism %d: %v", opts.Model.Name, opts.Parallelism, err)
		}
		if err := plan.Validate(opts.Topology); err != nil {
			t.Fatalf("%s, parallelism %d: invalid plan: %v", opts.Model.Name, opts.Parallelism, err)
		}
		return plan
	}
	// cancelled plans under ctx, which must be done or expire mid-plan,
	// and requires the cancellation error.
	cancelled := func(ctx context.Context, what string, opts Options, cause error) {
		p, err := PlanMobiusCtx(ctx, opts)
		requireCancelled(t, fmt.Sprintf("%s, parallelism %d", what, opts.Parallelism), p, err, cause)
	}
	opts3B := func(par int) Options {
		return Options{
			Model:    model.GPT3B,
			Topology: topo,
			// Uncached so every iteration re-runs the pool; a small node
			// budget keeps the unbounded solves short — the test is about
			// shutdown, not solution quality.
			MIP:         partition.MIPOptions{DisableCache: true, NodeLimit: 25, MaxStages: maxStages},
			Parallelism: par,
		}
	}

	for _, par := range []int{1, 4, 8} {
		// Already-cancelled context: fails before the pool even starts.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cancelled(ctx, "3B on two GPUs", opts3B(par), context.Canceled)

		// Deadline that expires mid-sweep: workers must be joined before
		// the cancellation error is returned.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
		cancelled(ctx2, "3B on two GPUs under a 5 ms deadline", opts3B(par), context.DeadlineExceeded)
		cancel2()

		// Unbounded run: the patience break cancels in-flight candidates;
		// they too must be joined. It must have solved two candidates or
		// more, with branching, and stopped before the last.
		st := plan(context.Background(), opts3B(par)).MIPStats
		if st == nil || solvedMILPs(st) < 2 || st.Nodes == 0 || slices.Contains(st.TriedStageCounts, maxStages) {
			t.Errorf("3B on two GPUs, parallelism %d: %+v; want two MILPs or more, with nodes, and a patience stop before S = %d",
				par, st, maxStages)
		}
	}

	// Deadline that expires inside the root phase: 8B on Topo 4+4 solves
	// its S = 8, 16 and 24 roots side by side, the last an 866-row LP of
	// about 370 ms, before any branch and bound. Both root goroutines
	// must be joined. A run without the deadline (one node per MILP)
	// checks first that the root phase has two roots or more to solve.
	wide := hw.Commodity(hw.RTX3090Ti, 4, 4)
	check := plan(context.Background(), Options{
		Model:       model.GPT8B,
		Topology:    wide,
		MIP:         partition.MIPOptions{DisableCache: true, NodeLimit: 1},
		Parallelism: 1,
	}).MIPStats
	if check == nil || slices.Contains(check.Resolutions, partition.RootBound) || len(check.TriedStageCounts) < 2 || check.LPSolves < len(check.TriedStageCounts) {
		t.Fatalf("8B on Topo 4+4: %+v; want two root LPs or more", check)
	}
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		cancelled(ctx, "8B on Topo 4+4 under a 20 ms deadline", Options{
			Model:       model.GPT8B,
			Topology:    wide,
			MIP:         partition.MIPOptions{DisableCache: true},
			Parallelism: par,
		}, context.DeadlineExceeded)
		cancel()
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("planning leaked goroutines: %d running, baseline %d\n%s", g, baseline, buf[:n])
	}
}

// solvedMILPs counts the tried candidates whose MILP the sweep solved.
func solvedMILPs(st *partition.MIPStats) int {
	n := 0
	for _, how := range st.Resolutions {
		if how != partition.RootBound && how != partition.RootLP {
			n++
		}
	}
	return n
}
