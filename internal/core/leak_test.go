package core

import (
	"context"
	"runtime"
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
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	// Warm the profiler/caches once so the baseline is not polluted by
	// lazily started runtime helpers.
	if _, err := PlanMobius(Options{Model: model.GPT8B, Topology: topo}); err != nil {
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
	run := func(ctx context.Context, m model.Config, par int) {
		plan(ctx, Options{
			Model:    m,
			Topology: topo,
			// Uncached so every iteration re-runs the pool; a small node
			// budget keeps the unbounded solves short — the test is about
			// shutdown, not solution quality.
			MIP:         partition.MIPOptions{DisableCache: true, NodeLimit: 25, MaxStages: 12},
			Parallelism: par,
		})
	}

	for _, par := range []int{1, 4, 8} {
		// Already-cancelled context: degrades to greedy before the pool
		// even starts.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		run(ctx, model.GPT15B, par)

		// Deadline that expires mid-sweep: workers must be joined before
		// the degraded plan is returned.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
		run(ctx2, model.GPT15B, par)
		cancel2()

		// Unbounded run: the patience break cancels in-flight candidates;
		// they too must be joined.
		run(context.Background(), model.GPT8B, par)
	}

	// Deadline that expires inside the root phase: 51B on Topo 4+4
	// solves its two roots side by side for about 300 ms before any
	// branch and bound. Both root goroutines must be joined.
	wide := hw.Commodity(hw.RTX3090Ti, 4, 4)
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		p := plan(ctx, Options{
			Model:       model.GPT51B,
			Topology:    wide,
			MIP:         partition.MIPOptions{DisableCache: true},
			Parallelism: par,
		})
		cancel()
		if !p.Fallback {
			t.Errorf("51B on Topo 4+4, parallelism %d: planned within a 20 ms deadline", par)
		}
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
