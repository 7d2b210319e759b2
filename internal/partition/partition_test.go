package partition

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mobius/internal/hw"
	"mobius/internal/lp"
	"mobius/internal/milp"
	"mobius/internal/model"
	"mobius/internal/profile"
)

func testParams(t *testing.T, cfg model.Config, gpus int) Params {
	t.Helper()
	prof, err := profile.Run(cfg, hw.RTX3090Ti, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Profile:   prof,
		NumGPUs:   gpus,
		GPUMem:    hw.RTX3090Ti.MemBytes * 0.92, // usable after CUDA ctx/frag
		Bandwidth: 13.1e9,
	}
}

func TestMinStageStructure(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	part, err := MinStage(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(p.Profile); err != nil {
		t.Fatal(err)
	}
	if got, want := part.NumStages(), model.GPT8B.Layers; got != want {
		t.Fatalf("min-stage count: got %d want %d", got, want)
	}
	for i, s := range part.Stages[1 : len(part.Stages)-1] {
		if s.Blocks != 1 {
			t.Fatalf("interior stage %d has %d blocks", i+1, s.Blocks)
		}
	}
}

func TestMaxStagePacksMemory(t *testing.T) {
	p := testParams(t, model.GPT15B, 4)
	part, err := MaxStage(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(p.Profile); err != nil {
		t.Fatal(err)
	}
	// Every stage must fit; every stage except the last must not admit
	// one more layer.
	for i, s := range part.Stages {
		if s.MemBwd() > p.GPUMem {
			t.Fatalf("stage %d overflows memory", i)
		}
		if i < len(part.Stages)-1 {
			grown := buildStage(p.Profile, s.First, s.Last+1)
			if grown.MemBwd() <= p.GPUMem && grown.MemFwd() <= p.GPUMem {
				t.Fatalf("stage %d could pack one more layer", i)
			}
		}
	}
	// Max-stage should produce far fewer stages than min-stage.
	if part.NumStages() >= model.GPT15B.Layers {
		t.Fatalf("max-stage produced %d stages", part.NumStages())
	}
}

func TestBalancedSplitsEvenly(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	part, err := Balanced(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.MaxInt, 0
	for _, s := range part.Stages {
		n := s.NumLayers()
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced: min %d max %d", min, max)
	}
}

func TestEvaluateBasicProperties(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	part, err := Balanced(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Evaluate(p, part)
	if err != nil {
		t.Fatal(err)
	}
	if sch.StepTime <= 0 || math.IsInf(sch.StepTime, 1) {
		t.Fatalf("step time %g", sch.StepTime)
	}
	// Forward start times are monotone in both stage and microbatch.
	for j := range sch.TF {
		for m := 1; m < len(sch.TF[j]); m++ {
			if sch.TF[j][m] < sch.TF[j][m-1] {
				t.Fatalf("TF not monotone in m at stage %d", j)
			}
		}
		if j > 0 && sch.TF[j][0] < sch.TF[j-1][0] {
			t.Fatalf("TF not monotone in stage at %d", j)
		}
	}
	// Backward of stage 0 finishes last.
	last := sch.TB[0][len(sch.TB[0])-1]
	for j := range sch.TB {
		for m := range sch.TB[j] {
			if sch.TB[j][m] > last {
				t.Fatalf("stage %d mb %d backward after final", j, m)
			}
		}
	}
}

func TestEvaluateInfeasibleWhenStageTooBig(t *testing.T) {
	p := testParams(t, model.GPT51B, 4)
	// One giant stage cannot fit 51B on a 24GB GPU.
	part, err := FromBoundaries(p.Profile, []int{p.Profile.NumLayers()}, "giant")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := Evaluate(p, part)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sch.StepTime, 1) {
		t.Fatalf("expected infeasible, got %g", sch.StepTime)
	}
}

func TestPrefetchReducesStepTime(t *testing.T) {
	// With prefetching (the real evaluator) the step must be no slower
	// than a variant with zero reserved memory (simulated by a tiny GPU
	// mem that still fits stages but leaves no prefetch room)... instead
	// compare: more GPU memory (more prefetch headroom) never hurts.
	p := testParams(t, model.GPT15B, 4)
	part, err := Balanced(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	small := p
	small.GPUMem = p.GPUMem * 0.55
	tBig, err := StepTime(p, part)
	if err != nil {
		t.Fatal(err)
	}
	tSmall, err := StepTime(small, part)
	if err != nil {
		t.Fatal(err)
	}
	if tBig > tSmall+1e-9 {
		t.Fatalf("more memory must not slow the pipeline: %g > %g", tBig, tSmall)
	}
}

func TestMIPPartitionBeatsBaselines(t *testing.T) {
	for _, cfg := range []model.Config{model.GPT8B, model.GPT15B} {
		p := testParams(t, cfg, 4)
		mip, stats, err := MIP(p, MIPOptions{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := mip.Validate(p.Profile); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		tMIP := stats.StepTime
		for _, mk := range []func(Params) (*Partition, error){MinStage, MaxStage} {
			base, err := mk(p)
			if err != nil {
				t.Fatal(err)
			}
			tBase, err := StepTime(p, base)
			if err != nil {
				t.Fatal(err)
			}
			if tMIP > tBase*1.001 {
				t.Errorf("%s: MIP (%g) slower than %s (%g)", cfg.Name, tMIP, base.Algorithm, tBase)
			}
		}
		if len(stats.TriedStageCounts) == 0 {
			t.Errorf("%s: no candidates tried", cfg.Name)
		}
		// Either an LP ran and its time is charged, or the root bound
		// resolved every candidate in favour of min-stage and none is.
		switch {
		case stats.LPSolves > 0:
			if stats.SolveTime <= 0 {
				t.Errorf("%s: %d LPs in zero solve time", cfg.Name, stats.LPSolves)
			}
		case !slices.Equal(stats.resolvedBy(RootBound), stats.TriedStageCounts) || !stats.UsedMinStageFallback || stats.SolveTime != 0:
			t.Errorf("%s: no LP, %v resolved by the root bound of %v, min-stage %v, solve time %v; want every candidate resolved by it, min-stage and no time",
				cfg.Name, stats.resolvedBy(RootBound), stats.TriedStageCounts, stats.UsedMinStageFallback, stats.SolveTime)
		}
	}
}

func TestMIPObjectiveMatchesEvaluator(t *testing.T) {
	// The MILP's objective and the analytic evaluator implement the same
	// execution model; on the returned partition they must agree.
	p := testParams(t, model.GPT8B, 4)
	mip, stats, err := MIP(p, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tEval, err := StepTime(p, mip)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tEval-stats.StepTime) > 1e-6*math.Max(1, tEval) {
		t.Fatalf("evaluator %g vs stats %g", tEval, stats.StepTime)
	}
}

// TestPricerMatchesFixedLP pins the identity the MILP's rounding
// heuristic rests on. Fix the block counts n of formulate(S), within
// their memory bounds, and solve that LP: its objective plus the
// embedding's backward time is the step time of the partition with
// those counts, which the pricer returns less that time, to 1e-12
// relative; where one side is infeasible, so is the other. The points
// are, for every candidate S, the balanced split of the blocks, random
// moves of one block from it, a stage pushed past its memory bound with
// the block count kept, and one block too many and too few. By default
// it covers 3B and 8B on Topo 2+2 and 4+4 at M = N; with MOBIUS_CHECK_LP
// set (make check-lp), every Table 3 model on both topologies at M = N
// and M = 8.
func TestPricerMatchesFixedLP(t *testing.T) {
	models := []model.Config{model.GPT3B, model.GPT8B}
	microbatches := []int{0} // M = N
	if os.Getenv("MOBIUS_CHECK_LP") != "" {
		models, microbatches = model.Table3(), []int{0, 8}
	}
	for _, m := range models {
		for _, groups := range [][]int{{2, 2}, {4, 4}} {
			for _, mb := range microbatches {
				params := planParams(t, m, groups...)
				if mb == params.NumGPUs {
					continue // M = 8 is M = N on eight GPUs
				}
				params.Microbatches = mb
				params = params.withDefaults()
				name := fmt.Sprintf("%s_%d+%d_M%d", m.Name, groups[0], groups[1], params.Microbatches)
				t.Run(name, func(t *testing.T) { pricerMatchesFixedLP(t, params) })
			}
		}
	}
}

func pricerMatchesFixedLP(t *testing.T, params Params) {
	bs, err := gatherBlockStats(params)
	if err != nil {
		t.Fatal(err)
	}
	price := pricer(params, bs)
	r := rand.New(rand.NewSource(int64(1000*params.NumGPUs + params.Microbatches + bs.blocks)))
	feasible, infeasible, worst := 0, 0, 0.0
	for _, S := range stageCounts(params, bs.blocks, MIPOptions{}.withDefaults(bs.blocks).MaxStages) {
		p := formulate(params, bs, S)
		if p == nil {
			continue
		}
		for _, n := range fixedPoints(p, S, bs.blocks, r) {
			q := p.CloneInto(&lp.Problem{})
			for j, v := range n {
				lo, hi := q.Bounds(j)
				q.SetBounds(j, max(lo, v), min(hi, v))
			}
			sol, err := q.Solve()
			if err != nil {
				t.Fatal(err)
			}
			obj, ok := price(n)
			switch {
			case sol.Status == lp.Optimal && ok:
				feasible++
				got, want := sol.Objective+bs.tbEmb, obj+bs.tbEmb
				rel := math.Abs(got-want) / want
				worst = max(worst, rel)
				if rel > 1e-12 {
					t.Errorf("S = %d, n = %v: fixed LP step %v, evaluator %v (relative error %.3g)", S, n, got, want, rel)
				}
			case sol.Status == lp.Infeasible && !ok:
				infeasible++
			default:
				t.Errorf("S = %d, n = %v: fixed LP %v (objective %v), pricer ok = %v (%v)", S, n, sol.Status, sol.Objective, ok, obj)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Errorf("%d feasible and %d infeasible points; want both", feasible, infeasible)
	}
	t.Logf("%d feasible points, largest relative error %.3g; %d infeasible points", feasible, worst, infeasible)
}

// fixedPoints returns the block counts TestPricerMatchesFixedLP fixes in
// p, the MILP for S stages: the balanced split of the blocks, four
// random moves of one block from it, the split with one stage pushed a
// block past its memory bound by taking blocks from the others (when
// they have enough), and the split with a block added to and taken from
// the last stage.
func fixedPoints(p *lp.Problem, S, blocks int, r *rand.Rand) [][]float64 {
	balanced := make([]float64, S)
	for j := range balanced {
		balanced[j] = float64(blocks / S)
		if j < blocks%S {
			balanced[j]++
		}
	}
	points := [][]float64{balanced}
	for k := 0; k < 4; k++ {
		n := slices.Clone(balanced)
		from, to := r.Intn(S), r.Intn(S-1)
		if to >= from {
			to++
		}
		n[from]--
		n[to]++
		points = append(points, n)
	}
	over := slices.Clone(balanced)
	j := r.Intn(S)
	_, hi := p.Bounds(j)
	for k := range over {
		lo, _ := p.Bounds(k)
		for k != j && over[j] <= hi && over[k] > lo {
			over[k]--
			over[j]++
		}
	}
	if over[j] > hi {
		points = append(points, over)
	}
	for _, d := range []float64{1, -1} {
		n := slices.Clone(balanced)
		n[S-1] += d
		points = append(points, n)
	}
	return points
}

// TestMIPEffortCountersRepeat checks the LP effort counters are a
// function of the planning problem alone: two serial uncached sweeps,
// and a parallel one, report the same node, LP and pivot counts and the
// same largest LP. No bound resolves this sweep's S = 24 candidate,
// whose MILP branches, so the parallel sweep runs a worker ahead.
func TestMIPEffortCountersRepeat(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	var first *MIPStats
	for _, par := range []int{1, 1, 2} {
		_, stats, err := MIP(p, MIPOptions{DisableCache: true, Parallelism: par, TimeLimit: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		solved := len(stats.TriedStageCounts) - len(stats.resolvedBy(RootBound))
		if solved < 2 || stats.Nodes == 0 || stats.LPSolves < solved || stats.LPPivots <= 0 || stats.LPRows <= 0 || stats.LPCols <= stats.LPRows {
			t.Fatalf("implausible effort: %d nodes, %d LPs, %d pivots, largest %dx%d over %d solved candidates",
				stats.Nodes, stats.LPSolves, stats.LPPivots, stats.LPRows, stats.LPCols, solved)
		}
		if first == nil {
			first = stats
			continue
		}
		if stats.Nodes != first.Nodes || stats.LPSolves != first.LPSolves || stats.LPPivots != first.LPPivots ||
			stats.LPRows != first.LPRows || stats.LPCols != first.LPCols {
			t.Errorf("parallelism %d: %d nodes, %d LPs, %d pivots, largest %dx%d; first run %d, %d, %d, %dx%d",
				par, stats.Nodes, stats.LPSolves, stats.LPPivots, stats.LPRows, stats.LPCols,
				first.Nodes, first.LPSolves, first.LPPivots, first.LPRows, first.LPCols)
		}
	}
}

// TestRootPhaseMatchesInline holds the root phase to the order before
// it, where each MILP solved its own root: the stage sizes and every
// MIPStats field but SolveTime, float bits included. It runs on the four
// benchmark cold-plan shapes with their options (time limit lifted) and
// on a node-bounded sweep of 51B on two GPUs whose S = 10 root is
// infeasible, each with the root phase at Parallelism 1 and 2. Both
// sides run the eager sweep, which resolves no candidate by a bound, so
// that every candidate the patience rule reaches runs its MILP from the
// root either side solved: the bounds would resolve some on the phased
// side by roots the inline side never solves, and would keep out of the
// root phase the S = 24 root of 51B on Topo 4+4, which stops as
// numerical, and the infeasible S = 10 root.
func TestRootPhaseMatchesInline(t *testing.T) {
	lifted := MIPOptions{DisableCache: true, TimeLimit: 10 * time.Minute}
	bounded := lifted
	bounded.NodeLimit, bounded.MaxStages = 10, 16
	two := planParams(t, model.GPT51B, 2)
	cases := []struct {
		name   string
		params Params
		opts   MIPOptions
	}{
		{"3B_2p2", planParams(t, model.GPT3B, 2, 2), lifted},
		{"8B_1p3", planParams(t, model.GPT8B, 1, 3), lifted},
		{"15B_2p2", planParams(t, model.GPT15B, 2, 2), lifted},
		{"51B_4p4", planParams(t, model.GPT51B, 4, 4), lifted},
		{"51B_2", two, bounded},
	}

	// The bounded sweep's S = 10 candidate is formulated, but its root
	// relaxation is infeasible.
	withDefaults := two.withDefaults()
	bs, err := gatherBlockStats(withDefaults)
	if err != nil {
		t.Fatal(err)
	}
	if sol, err := formulate(withDefaults, bs, 10).Solve(); err != nil || sol.Status != lp.Infeasible {
		t.Fatalf("51B on two GPUs, S = 10 root: %v, %v; want an infeasible LP", sol, err)
	}

	for _, c := range cases {
		inline, phased := eager(mipInline), eager(MIP)
		// The sweep before the root phase is the same at every
		// parallelism level, so one serial run is the oracle for both.
		opts := c.opts
		opts.Parallelism = 1
		wantPart, wantStats, err := inline(c.params, opts)
		if err != nil {
			t.Fatalf("%s: inline roots: %v", c.name, err)
		}
		wantStats.SolveTime = 0
		for _, par := range []int{1, 2} {
			opts.Parallelism = par
			gotPart, gotStats, err := phased(c.params, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if gotStats.LPSolves == 0 {
				t.Fatalf("%s: no LP ran, so the root phase solved nothing", c.name)
			}
			if c.name == "51B_4p4" && gotStats.LPNumerical == 0 {
				t.Fatalf("%s: no LP stopped as numerical", c.name)
			}
			if c.name == "51B_2" && !slices.Contains(gotStats.TriedStageCounts, 10) {
				t.Fatalf("%s: tried %v; want S = 10 solved", c.name, gotStats.TriedStageCounts)
			}
			// %v prints the shortest decimal that parses back to the same
			// float, so equal strings mean equal bits (and signs of zero).
			if got, want := fmt.Sprintf("%+v", gotPart.Stages), fmt.Sprintf("%+v", wantPart.Stages); got != want {
				t.Errorf("%s at Parallelism %d: stages\n%s\nwant\n%s", c.name, par, got, want)
			}
			gotStats.SolveTime = 0
			if got, want := fmt.Sprintf("%+v", *gotStats), fmt.Sprintf("%+v", *wantStats); got != want {
				t.Errorf("%s at Parallelism %d: stats\n%s\nwant\n%s", c.name, par, got, want)
			}
		}
	}
}

// TestMIPStatsProvenIsConjunction: the sweep is proven only if every
// candidate solve was; one unproven solve clears it for good, and a
// candidate with no solve (infeasible at formulation) leaves it alone.
func TestMIPStatsProvenIsConjunction(t *testing.T) {
	s := &MIPStats{Proven: true}
	s.addEffort(&milp.Result{Proven: true})
	s.addEffort(nil)
	if !s.Proven {
		t.Fatal("proven solves cleared Proven")
	}
	s.addEffort(&milp.Result{Proven: false})
	s.addEffort(&milp.Result{Proven: true})
	if s.Proven {
		t.Error("an unproven candidate solve left Proven set")
	}
}

// TestMIPStatsSumsNumericalLPs: the sweep's count of LPs stopped on a
// breakdown is the sum over its solves.
func TestMIPStatsSumsNumericalLPs(t *testing.T) {
	s := &MIPStats{}
	s.addEffort(&milp.Result{LPNumerical: 1})
	s.addEffort(nil)
	s.addEffort(&milp.Result{LPNumerical: 2})
	if s.LPNumerical != 3 {
		t.Errorf("LPNumerical %d, want 3", s.LPNumerical)
	}
}

// TestRoot51BIsFeasibleButBreaksDown pins the two facts the simplex's
// breakdown guard rests on, on the largest LP of a Table 3 cold plan.
// The S = 24 root of 51B on Topo 4+4 is feasible: block counts within
// their bounds summing to the block count, zero prefetch, and every start
// time at the longest path to it meet every row to 1e-9. Yet the tableau
// loses primal feasibility on it, and the solve stops as Numerical within
// 2,000 pivots; without the guard it pivots on to a false Infeasible
// after 5,669.
func TestRoot51BIsFeasibleButBreaksDown(t *testing.T) {
	p, params := root51B(t)
	const S = 24
	M := params.Microbatches
	x := make([]float64, p.NumVars())
	left := float64(model.GPT51B.Layers)
	for j := 0; j < S; j++ {
		x[j], _ = p.Bounds(j)
		left -= x[j]
	}
	for left > 0 {
		grew := false
		for j := 0; j < S && left > 0; j++ {
			if _, hi := p.Bounds(j); x[j] < hi {
				x[j]++
				left--
				grew = true
			}
		}
		if !grew {
			t.Fatalf("block-count upper bounds sum below %d blocks", model.GPT51B.Layers)
		}
	}
	// With block counts and prefetch fixed, each >= row bounds one start
	// time (coefficient 1) from below by others: raise the start times
	// until no such row is violated, which reaches the longest paths.
	isStart := func(v int) bool { return v >= S && v < S+2*S*M }
	for pass := 0; ; pass++ {
		if pass > p.NumVars() {
			t.Fatal("start times did not settle: the precedence rows have a cycle")
		}
		raised := false
		for i := 0; i < p.NumConstraints(); i++ {
			terms, rel, rhs := p.Constraint(i)
			if rel != lp.GE {
				continue
			}
			head, rest := -1, 0.0
			for _, tm := range terms {
				if isStart(tm.Var) && tm.Coeff == 1 {
					head = tm.Var
				} else {
					rest += tm.Coeff * x[tm.Var]
				}
			}
			if head >= 0 && rhs-rest > x[head] {
				x[head] = rhs - rest
				raised = true
			}
		}
		if !raised {
			break
		}
	}
	for i := 0; i < p.NumVars(); i++ {
		if lo, hi := p.Bounds(i); x[i] < lo || x[i] > hi {
			t.Errorf("x[%d] = %g outside [%g, %g]", i, x[i], lo, hi)
		}
	}
	worst := 0.0
	for i := 0; i < p.NumConstraints(); i++ {
		terms, rel, rhs := p.Constraint(i)
		act := 0.0
		for _, tm := range terms {
			act += tm.Coeff * x[tm.Var]
		}
		var miss float64
		switch rel {
		case lp.LE:
			miss = act - rhs
		case lp.GE:
			miss = rhs - act
		case lp.EQ:
			miss = math.Abs(act - rhs)
		}
		if miss > 1e-9 {
			t.Errorf("row %d: %g %v %g misses by %g", i, act, rel, rhs, miss)
		}
		worst = math.Max(worst, miss)
	}

	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pivots := sol.Phase1Pivots + sol.Phase2Pivots; sol.Status != lp.Numerical || pivots > 2000 {
		t.Errorf("root LP %v after %d pivots, want %v within 2000", sol.Status, pivots, lp.Numerical)
	}
	t.Logf("a point misses no row by more than %.2g; the root LP stops %v after %d pivots",
		worst, sol.Status, sol.Phase1Pivots+sol.Phase2Pivots)
}

func TestMIPStageCountMultipleOfGPUs(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	mip, stats, err := MIP(p, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedMinStageFallback && mip.NumStages()%4 != 0 {
		t.Fatalf("MIP stage count %d not a multiple of 4", mip.NumStages())
	}
}

// TestFromBoundariesRejectsBadSizes: stage sizes that do not cover the
// profile's layers exactly, one by one, are an error, never a panic;
// sizes that do make a partition.
func TestFromBoundariesRejectsBadSizes(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	layers := p.Profile.NumLayers()
	for _, c := range []struct {
		name  string
		sizes []int
		ok    bool
	}{
		{"match", []int{layers - 5, 5}, true},
		{"zero", []int{0, layers}, false},
		{"short", []int{3, 3}, false},
		{"overrun", []int{layers - 5, 6}, false},
		{"overrun mid-stage", []int{layers - 5, 3, 3}, false},
		{"past the end", []int{layers, 1}, false},
	} {
		part, err := FromBoundaries(p.Profile, c.sizes, "test")
		if (err == nil) != c.ok || (part != nil) != c.ok {
			t.Errorf("%s %v: partition %v, error %v; want ok %v", c.name, c.sizes, part != nil, err, c.ok)
		}
	}
}

func TestStageAggregation(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	s := buildStage(p.Profile, 0, 4) // embedding + 4 blocks
	if s.Blocks != 4 {
		t.Fatalf("blocks: got %d", s.Blocks)
	}
	var wantParams float64
	for i := 0; i <= 4; i++ {
		wantParams += p.Profile.Layers[i].ParamBytes
	}
	if math.Abs(s.ParamBytes-wantParams) > 1 {
		t.Fatalf("param bytes: got %g want %g", s.ParamBytes, wantParams)
	}
	if s.ActInBytes != 0 {
		t.Fatal("first stage must have no incoming activation")
	}
	if s.ActOutBytes <= 0 {
		t.Fatal("stage must emit a boundary activation")
	}
}

// TestEvaluateMonotoneInBandwidth: higher bandwidth never slows a
// partition down.
func TestEvaluateMonotoneInBandwidth(t *testing.T) {
	p := testParams(t, model.GPT15B, 4)
	part, err := Balanced(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(bwRaw uint8) bool {
		bw := 2e9 + float64(bwRaw)*0.1e9
		p1, p2 := p, p
		p1.Bandwidth = bw
		p2.Bandwidth = bw * 1.5
		t1, err1 := StepTime(p1, part)
		t2, err2 := StepTime(p2, part)
		return err1 == nil && err2 == nil && t2 <= t1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomPartitionsAreSchedulable: any legal partition of a model that
// fits stage-wise must produce a finite, positive schedule.
func TestRandomPartitionsAreSchedulable(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	L := p.Profile.NumLayers()
	f := func(seedRaw uint16) bool {
		// Derive stage sizes from the seed deterministically.
		seed := int(seedRaw)
		var sizes []int
		remaining := L
		for remaining > 0 {
			n := 1 + (seed % 7)
			seed = seed/7 + 13
			if n > remaining {
				n = remaining
			}
			sizes = append(sizes, n)
			remaining -= n
		}
		part, err := FromBoundaries(p.Profile, sizes, "random")
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		sch, err := Evaluate(p, part)
		if err != nil {
			t.Logf("eval: %v", err)
			return false
		}
		if math.IsInf(sch.StepTime, 1) {
			return true // infeasible is a legal outcome for fat stages
		}
		return sch.StepTime > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMIPNearExhaustiveOptimum validates the MILP against brute force:
// on a small model, enumerate every contiguous partition whose stage
// count is a multiple of the GPU count (the MIP's search space) and
// check the MIP result is within the solver's gap tolerance of the best.
func TestMIPNearExhaustiveOptimum(t *testing.T) {
	cfg := model.GPT8B
	cfg.Layers = 6 // tiny: embedding + 6 blocks + head = 8 layers
	prof, err := profile.Run(cfg, hw.RTX3090Ti, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Profile:   prof,
		NumGPUs:   2,
		GPUMem:    hw.RTX3090Ti.MemBytes * 0.92,
		Bandwidth: 13.1e9,
		Latency:   5e-3,
	}
	mip, stats, err := MIP(p, MIPOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = mip

	// Brute force over compositions of 8 layers.
	L := prof.NumLayers()
	best := math.Inf(1)
	var rec func(sizes []int, remaining int)
	rec = func(sizes []int, remaining int) {
		if remaining == 0 {
			if len(sizes)%p.NumGPUs != 0 {
				return
			}
			part, err := FromBoundaries(prof, append([]int(nil), sizes...), "bf")
			if err != nil {
				return
			}
			if tm, err := StepTime(p, part); err == nil && tm < best {
				best = tm
			}
			return
		}
		for n := 1; n <= remaining; n++ {
			rec(append(sizes, n), remaining-n)
		}
	}
	rec(nil, L)
	if math.IsInf(best, 1) {
		t.Fatal("brute force found nothing feasible")
	}
	if stats.StepTime > best*(1+2*mipGapTol)+1e-9 {
		t.Fatalf("MIP %.6f worse than exhaustive optimum %.6f beyond gap", stats.StepTime, best)
	}
	t.Logf("MIP %.4fs vs exhaustive %.4fs over compositions of %d layers", stats.StepTime, best, L)
}

// TestGreedyFallbackFeasibleAndDeterministic checks the deadline
// fallback's contract: Greedy always returns a valid partition whose
// stages fit GPU memory, its stage count is a multiple of the GPU count,
// and two calls with the same params produce identical boundaries — the
// property the plan-determinism guarantee under cancellation rests on.
func TestGreedyFallbackFeasibleAndDeterministic(t *testing.T) {
	for _, cfg := range []model.Config{model.GPT3B, model.GPT8B, model.GPT15B, model.GPT51B} {
		p := testParams(t, cfg, 4)
		part, err := Greedy(p)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if part.Algorithm != AlgoGreedy {
			t.Fatalf("%s: algorithm %q", cfg.Name, part.Algorithm)
		}
		if err := part.Validate(p.Profile); err != nil {
			t.Fatalf("%s: invalid partition: %v", cfg.Name, err)
		}
		if part.NumStages()%p.NumGPUs != 0 {
			t.Errorf("%s: %d stages not a multiple of %d GPUs", cfg.Name, part.NumStages(), p.NumGPUs)
		}
		for j, st := range part.Stages {
			if st.MemFwd() > p.GPUMem || st.MemBwd() > p.GPUMem {
				t.Errorf("%s: stage %d exceeds GPU memory", cfg.Name, j)
			}
		}
		again, err := Greedy(p)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(again.Stages) != len(part.Stages) {
			t.Fatalf("%s: nondeterministic stage count", cfg.Name)
		}
		for j := range part.Stages {
			if part.Stages[j].First != again.Stages[j].First || part.Stages[j].Last != again.Stages[j].Last {
				t.Fatalf("%s: nondeterministic boundaries at stage %d", cfg.Name, j)
			}
		}
	}
}

// TestGreedyPrefersFewestStagesThatFit checks the search order: Greedy
// walks stage counts upward in multiples of the GPU count and stops at
// the first memory-feasible decomposition, so a model that fits at one
// stage per GPU gets exactly that.
func TestGreedyPrefersFewestStagesThatFit(t *testing.T) {
	p := testParams(t, model.GPT3B, 4)
	part, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumStages() != 4 {
		t.Fatalf("3B fits one stage per GPU; greedy chose %d stages", part.NumStages())
	}
}

// TestResolutionsNotPersisted: MIPStats is persisted as JSON in every
// plan-store record, and how the sweep resolved each candidate is not
// part of that record format.
func TestResolutionsNotPersisted(t *testing.T) {
	b, err := json.Marshal(MIPStats{TriedStageCounts: []int{8, 16}, Resolutions: []Resolution{RootBound, RootLP}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Resolution") {
		t.Errorf("MIPStats JSON %s carries the resolutions", b)
	}
}
