package partition

import (
	"testing"

	"mobius/internal/hw"
	"mobius/internal/lp"
	"mobius/internal/model"
	"mobius/internal/profile"
)

// BenchmarkMIPPartitionSweep measures an uncached sweep of MILP partition
// solves over candidate stage counts for the 8B model on 4 GPUs.
func BenchmarkMIPPartitionSweep(b *testing.B) {
	prof, err := profile.Run(model.GPT8B, hw.RTX3090Ti, profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	params := Params{
		Profile:   prof,
		NumGPUs:   4,
		GPUMem:    hw.RTX3090Ti.MemBytes * 0.92,
		Bandwidth: 13.1e9,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MIP(params, MIPOptions{DisableCache: true, MaxStages: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPRoot measures the largest single LP of a Table 3 cold plan:
// the root relaxation of the 51B model on Topo 4+4 at S = 24 stages,
// with the planning parameters core.PlanMobius derives for that shape.
// The relaxation is feasible, but the tableau breaks down on it and the
// solve stops as numerical after about 1,790 pivots, so the sweep falls
// back to the min-stage partition. It reports the tableau size, the
// pivot count and the status (lp.Status as a number; 4 is numerical)
// with the time.
func BenchmarkLPRoot(b *testing.B) {
	p, _ := root51B(b)
	var sc lp.Scratch
	var sol *lp.Solution
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol, err = p.SolveWith(&sc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sol.Rows), "rows")
	b.ReportMetric(float64(sol.Cols), "cols")
	b.ReportMetric(float64(sol.Phase1Pivots+sol.Phase2Pivots), "pivots")
	b.ReportMetric(float64(sol.Status), "status")
}

// root51B formulates the root relaxation of the 51B model on Topo 4+4
// at S = 24 stages with the planning parameters core.PlanMobius derives
// for that shape, and returns it with those parameters.
func root51B(tb testing.TB) (*lp.Problem, Params) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	prof, err := profile.Run(model.GPT51B, hw.RTX3090Ti, profile.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	bw := topo.GPUs[0].Spec.LinkBW
	for _, rc := range topo.RootComplexBW {
		bw = min(bw, rc)
	}
	params := Params{
		Profile:   prof,
		NumGPUs:   topo.NumGPUs(),
		GPUMem:    topo.GPUMem(0) * 0.92,
		Bandwidth: bw,
		Latency:   topo.TransferLatency,
	}.withDefaults()
	bs, err := gatherBlockStats(params)
	if err != nil {
		tb.Fatal(err)
	}
	p := formulate(params, bs, 24)
	if p == nil {
		tb.Fatal("S = 24 does not fit")
	}
	return p, params
}
