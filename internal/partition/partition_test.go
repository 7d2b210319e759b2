package partition

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mobius/internal/hw"
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
		if stats.SolveTime <= 0 {
			t.Errorf("%s: zero solve time", cfg.Name)
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

// TestMIPEffortCountersRepeat checks the LP effort counters are a
// function of the planning problem alone: two serial uncached sweeps,
// and a parallel one, report the same node, LP and pivot counts and the
// same largest LP.
func TestMIPEffortCountersRepeat(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	var first *MIPStats
	for _, par := range []int{1, 1, 2} {
		_, stats, err := MIP(p, MIPOptions{DisableCache: true, MaxStages: 12, Parallelism: par, TimeLimit: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if stats.LPSolves < len(stats.TriedStageCounts) || stats.LPPivots <= 0 || stats.LPRows <= 0 || stats.LPCols <= stats.LPRows {
			t.Fatalf("implausible effort: %d LPs, %d pivots, largest %dx%d over %d candidates",
				stats.LPSolves, stats.LPPivots, stats.LPRows, stats.LPCols, len(stats.TriedStageCounts))
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

func TestFromBoundariesRejectsBadSizes(t *testing.T) {
	p := testParams(t, model.GPT8B, 4)
	if _, err := FromBoundaries(p.Profile, []int{0, 42}, "bad"); err == nil {
		t.Fatal("zero stage size must fail")
	}
	if _, err := FromBoundaries(p.Profile, []int{3, 3}, "bad"); err == nil {
		t.Fatal("non-covering sizes must fail")
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
