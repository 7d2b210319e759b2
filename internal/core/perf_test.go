package core

import (
	"context"
	"os"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/model"
)

// greedyPlanner plans with the deterministic greedy floor, so a Mobius
// step benchmark measures the step alone: no MIP, no wall-clock limit
// that could move the plan between machines.
func greedyPlanner(b testing.TB, opts Options) Planner {
	plan, err := GreedyPlan(opts, "benchmark")
	if err != nil {
		b.Fatal(err)
	}
	return PlannerFunc(func(context.Context, Options) (*Plan, error) { return plan, nil })
}

func benchStep(b *testing.B, system System, m model.Config, topo *hw.Topology) {
	opts := Options{Model: m, Topology: topo}
	if system == SystemMobius {
		opts.Planner = greedyPlanner(b, opts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(system, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepDSHetero15B is one DeepSpeed ZeRO-3 heterogeneous-memory
// step (profile, DAG build, simulation and the traffic sum; the bandwidth
// CDFs and overlap fraction are computed only when read) on 15B, Topo 2+2.
func BenchmarkStepDSHetero15B(b *testing.B) {
	benchStep(b, SystemDSHetero, model.GPT15B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

// BenchmarkStepDSHetero51B is the same step on 51B, Topo 4+4.
func BenchmarkStepDSHetero51B(b *testing.B) {
	benchStep(b, SystemDSHetero, model.GPT51B, hw.Commodity(hw.RTX3090Ti, 4, 4))
}

// BenchmarkStepMobius15B is one Mobius step on a fixed greedy plan for
// 15B, Topo 2+2.
func BenchmarkStepMobius15B(b *testing.B) {
	benchStep(b, SystemMobius, model.GPT15B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

// Allocation ceilings for one simulated step: DeepSpeed-hetero and
// Mobius on 15B, Topo 2+2, GPipe on 3B, Topo 2+2, the largest Table 3
// model it fits, and DeepSpeed-hetero on 51B, Topo 4+4, the costliest
// step. Measured after the simulator began water-filling every active
// flow in one pass instead of per connected component (310, 157, 339
// and 450 allocs/op on linux/amd64, go1.24; 322, 168, 348 and 465
// before, 352, 186, 356 and 548 before each server resolved a route
// once into a path id, and 5,616, 372, 528 and 19,947 before tasks
// stopped carrying names, boxed tags and pointers), each plus about 3%
// slack. Allocation counts do not depend on machine speed, so the gate
// holds on any machine.
const (
	dsHeteroStepAllocCeiling    = 320
	mobiusStepAllocCeiling      = 162
	gpipeStepAllocCeiling       = 350
	dsHetero51BStepAllocCeiling = 464
)

// TestStepAllocCeilings is the step gate of `make check-perf`: one
// core.Run step of DeepSpeed-hetero, of Mobius (on its greedy plan) and
// of GPipe must stay under its allocation ceiling.
func TestStepAllocCeilings(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_PERF") == "" {
		t.Skip("set MOBIUS_CHECK_PERF=1 (or run `make check-perf`) to run the performance smoke gate")
	}
	topo22, topo44 := hw.Commodity(hw.RTX3090Ti, 2, 2), hw.Commodity(hw.RTX3090Ti, 4, 4)
	for _, c := range []struct {
		system  System
		model   model.Config
		topo    *hw.Topology
		ceiling float64
	}{
		{SystemDSHetero, model.GPT15B, topo22, dsHeteroStepAllocCeiling},
		{SystemMobius, model.GPT15B, topo22, mobiusStepAllocCeiling},
		{SystemGPipe, model.GPT3B, topo22, gpipeStepAllocCeiling},
		{SystemDSHetero, model.GPT51B, topo44, dsHetero51BStepAllocCeiling},
	} {
		opts := Options{Model: c.model, Topology: c.topo}
		if c.system == SystemMobius {
			opts.Planner = greedyPlanner(t, opts)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(c.system, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %s on %s: %.0f allocs/step (ceiling %.0f)", c.system, c.model.Name, c.topo.Name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s %s on %s allocates %.0f times, over its ceiling of %.0f", c.system, c.model.Name, c.topo.Name, allocs, c.ceiling)
		}
	}
}
