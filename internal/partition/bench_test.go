package partition

import (
	"testing"
	"time"

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

// BenchmarkMIPBranching measures the branch-and-bound layer: one
// uncached serial sweep of the 15B model on Topo 2+2 with the options of
// a benchmark cold plan (Parallelism 1, the time limit lifted so the
// node limit alone bounds each MILP). Its S = 24 candidate branches, and
// the sweep is 6 nodes, 18 LP solves and 22,048 pivots
// (internal/lp/testdata/effort.golden), most of them in node children,
// which each MILP solves two at a time. It reports the nodes, LP solves
// and pivots with the time.
func BenchmarkMIPBranching(b *testing.B) {
	benchmarkSweep(b, planParams(b, model.GPT15B, 2, 2))
}

// BenchmarkMIPSweep3B measures one uncached serial sweep of the 3B model
// on Topo 2+2, with the options of BenchmarkMIPBranching: the sweep whose
// S = 20 candidate its root LP resolves, so that only S = 24 branches.
// It is 1 node, 8 LP solves and 6,183 pivots, where the eager sweep was
// 11 nodes, 28 LP solves and 24,830 pivots.
func BenchmarkMIPSweep3B(b *testing.B) {
	benchmarkSweep(b, planParams(b, model.GPT3B, 2, 2))
}

func benchmarkSweep(b *testing.B, params Params) {
	opts := MIPOptions{Parallelism: 1, DisableCache: true, TimeLimit: 10 * time.Minute}
	var stats *MIPStats
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err = MIP(params, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.Nodes), "nodes")
	b.ReportMetric(float64(stats.LPSolves), "lps")
	b.ReportMetric(float64(stats.LPPivots), "pivots")
}

// BenchmarkMIPRoots measures the root phase: one uncached serial sweep
// of the 51B model on Topo 4+4 with the options of a benchmark cold plan
// (Parallelism 1, the time limit lifted) and the sweep eager. The root
// bound resolves that sweep with no LP, so a cold plan no longer runs
// this search; eager, it is the S = 16 and S = 24 roots,
// which the sweep solves side by side, and no node: 2 LP solves and
// 3,263 pivots, one of them stopped as numerical. It reports the LP
// solves and pivots with the time.
func BenchmarkMIPRoots(b *testing.B) {
	params := planParams(b, model.GPT51B, 4, 4)
	opts := MIPOptions{Parallelism: 1, DisableCache: true, TimeLimit: 10 * time.Minute}
	sweep := eager(MIP)
	var stats *MIPStats
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err = sweep(params, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.LPSolves), "lps")
	b.ReportMetric(float64(stats.LPPivots), "pivots")
}

// BenchmarkLPRoot measures the largest single LP of a Table 3 cold plan:
// the root relaxation of the 51B model on Topo 4+4 at S = 24 stages,
// with the planning parameters core.PlanMobius derives for that shape.
// The relaxation is feasible, but the tableau breaks down on it and the
// solve stops as numerical after about 1,790 pivots. A cold plan no
// longer solves it: the root bound proves the min-stage partition
// better than every candidate first. It reports the tableau size, the
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
	params := planParams(tb, model.GPT51B, 4, 4).withDefaults()
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

// planParams returns the partition parameters core.PlanMobius derives
// for model m on the RTX 3090 Ti commodity topology with the given GPUs
// per root complex, at its default microbatch count.
func planParams(tb testing.TB, m model.Config, groups ...int) Params {
	topo := hw.Commodity(hw.RTX3090Ti, groups...)
	prof, err := profile.Run(m, hw.RTX3090Ti, profile.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	bw := topo.GPUs[0].Spec.LinkBW
	for _, rc := range topo.RootComplexBW {
		bw = min(bw, rc)
	}
	return Params{
		Profile:   prof,
		NumGPUs:   topo.NumGPUs(),
		GPUMem:    topo.GPUMem(0) * 0.92,
		Bandwidth: bw,
		Latency:   topo.TransferLatency,
	}
}
