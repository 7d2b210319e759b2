package partition

import (
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/profile"
)

// TestRootBoundBelowExhaustiveOptimum holds rootBound to brute force:
// on small instances, LB(S) is at most the least MILP objective
// (StepTime − tbEmb, as the pricer returns it) over every block-count
// vector with S stages, and blockBounds rejects only an S that has no
// memory-feasible vector. The instances take the block shapes of every
// Table 3 model with 6, 9 and 12 blocks, N in {2, 3, 4}, M in {N, 2N,
// 3N}, the usable memory of an RTX 3090 Ti and half of it, and every S
// from 1 to blocks+2. By default it covers 6 and 9 blocks; with
// MOBIUS_CHECK_LP set (make check-lp), 12 blocks too.
func TestRootBoundBelowExhaustiveOptimum(t *testing.T) {
	sizes := []int{6, 9}
	if os.Getenv("MOBIUS_CHECK_LP") != "" {
		sizes = append(sizes, 12)
	}
	instances, tight := 0, 0
	for _, base := range model.Table3() {
		for _, blocks := range sizes {
			cfg := base
			cfg.Layers = blocks
			prof, err := profile.Run(cfg, hw.RTX3090Ti, profile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for N := 2; N <= 4; N++ {
				for _, M := range []int{N, 2 * N, 3 * N} {
					for _, mem := range []float64{0.92, 0.46} {
						params := Params{
							Profile:      prof,
							NumGPUs:      N,
							Microbatches: M,
							GPUMem:       hw.RTX3090Ti.MemBytes * mem,
							Bandwidth:    13.1e9,
							Latency:      5e-3,
						}
						bs, err := gatherBlockStats(params)
						if err != nil {
							t.Fatal(err)
						}
						price := pricer(params, bs)
						for S := 1; S <= blocks+2; S++ {
							best := math.Inf(1)
							forEachBlockCount(S, blocks, func(n []float64) {
								if v, ok := price(n); ok {
									best = min(best, v)
								}
							})
							name := fmt.Sprintf("%s blocks=%d N=%d M=%d mem=%g S=%d", base.Name, blocks, N, M, mem, S)
							lb, ok := rootBound(params, bs, S)
							if !ok {
								if !math.IsInf(best, 1) {
									t.Errorf("%s: blockBounds rejects S, but a partition prices at %g", name, best)
								}
								continue
							}
							if math.IsInf(best, 1) {
								continue
							}
							instances++
							if lb > best {
								t.Errorf("%s: LB %.17g above the exhaustive optimum %.17g", name, lb, best)
							}
							if lb >= best*(1-1e-6) {
								tight++
							}
						}
					}
				}
			}
		}
	}
	if instances == 0 {
		t.Fatal("no instance has a feasible partition")
	}
	t.Logf("%d instances, LB within 1e-6 of the optimum on %d", instances, tight)
}

// forEachBlockCount calls f with every vector of S block counts summing
// to blocks in which the edge stages hold at least none and the
// interior stages at least one. f must not keep n.
func forEachBlockCount(S, blocks int, f func(n []float64)) {
	n := make([]float64, S)
	var rec func(j, left int)
	rec = func(j, left int) {
		lo := 1
		if j == 0 || j == S-1 {
			lo = 0
		}
		if j == S-1 {
			if left >= lo {
				n[j] = float64(left)
				f(n)
			}
			return
		}
		for k := lo; k <= left; k++ {
			n[j] = float64(k)
			rec(j+1, left-k)
		}
	}
	rec(0, blocks)
}

// TestPrunedSweepMatchesUnpruned holds the sweep with the root bound to
// the sweep without it: the same stages, BestStageCount, StepTime bits
// and UsedMinStageFallback. A sweep the bound resolves runs no LP; one
// it leaves is the unpruned sweep, with the same candidates, nodes, LPs
// and pivots. The time limit is lifted, so only the node limit
// bounds a MILP and neither side depends on the host's speed. By default
// it covers 51B on Topo 4+4 and 8B on Topo 2+2 at M = N; with
// MOBIUS_CHECK_LP set (make check-lp), every Table 3 model on Topo 2+2,
// 1+3 and 4+4 at M = N and M = 8. A shape whose planning parameters
// equal an earlier one's (1+3 plans as 2+2 does, and M = 8 is M = N on
// 4+4) is the same sweep, and runs once.
func TestPrunedSweepMatchesUnpruned(t *testing.T) {
	type shape struct {
		m      model.Config
		groups []int
		M      int
	}
	shapes := []shape{{model.GPT51B, []int{4, 4}, 0}, {model.GPT8B, []int{2, 2}, 0}}
	if os.Getenv("MOBIUS_CHECK_LP") != "" {
		shapes = nil
		for _, m := range model.Table3() {
			for _, groups := range [][]int{{2, 2}, {1, 3}, {4, 4}} {
				for _, M := range []int{0, 8} {
					shapes = append(shapes, shape{m, groups, M})
				}
			}
		}
	}
	opts := MIPOptions{DisableCache: true, TimeLimit: 10 * time.Minute}
	pruned := 0
	seen := map[string]bool{}
	for _, sh := range shapes {
		params := planParams(t, sh.m, sh.groups...)
		params.Microbatches = sh.M
		params = params.withDefaults()
		name := fmt.Sprintf("%s %v M=%d", sh.m.Name, sh.groups, params.Microbatches)
		key := fmt.Sprintf("%s %d %d %v %v %v", sh.m.Name, params.NumGPUs, params.Microbatches, params.GPUMem, params.Bandwidth, params.Latency)
		if seen[key] {
			continue
		}
		seen[key] = true
		start := time.Now()
		wantPart, w, err := unpruned(MIP)(params, opts)
		if err != nil {
			t.Fatalf("%s: unpruned: %v", name, err)
		}
		mid := time.Now()
		gotPart, g, err := MIP(params, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := fmt.Sprintf("%+v", gotPart.Stages), fmt.Sprintf("%+v", wantPart.Stages); got != want {
			t.Errorf("%s: stages\n%s\nwant\n%s", name, got, want)
		}
		if g.BestStageCount != w.BestStageCount || math.Float64bits(g.StepTime) != math.Float64bits(w.StepTime) ||
			g.UsedMinStageFallback != w.UsedMinStageFallback {
			t.Errorf("%s: S = %d, step %v, min-stage %v; unpruned S = %d, step %v, min-stage %v",
				name, g.BestStageCount, g.StepTime, g.UsedMinStageFallback, w.BestStageCount, w.StepTime, w.UsedMinStageFallback)
		}
		if len(w.PrunedStageCounts) != 0 {
			t.Errorf("%s: the unpruned sweep pruned %v", name, w.PrunedStageCounts)
		}
		for _, s := range g.PrunedStageCounts {
			if !slices.Contains(g.TriedStageCounts, s) {
				t.Errorf("%s: pruned S = %d is not among the tried %v", name, s, g.TriedStageCounts)
			}
		}
		// The bound resolves a sweep whole or leaves it alone: a sweep it
		// leaves is the unpruned one, effort included.
		if len(g.PrunedStageCounts) == 0 && (g.Nodes != w.Nodes || g.LPSolves != w.LPSolves || g.LPPivots != w.LPPivots ||
			!slices.Equal(g.TriedStageCounts, w.TriedStageCounts)) {
			t.Errorf("%s: tried %v, %d nodes, %d LPs, %d pivots; unpruned %v, %d, %d, %d",
				name, g.TriedStageCounts, g.Nodes, g.LPSolves, g.LPPivots, w.TriedStageCounts, w.Nodes, w.LPSolves, w.LPPivots)
		}
		if len(g.PrunedStageCounts) != 0 && (g.LPSolves != 0 || !g.UsedMinStageFallback) {
			t.Errorf("%s: pruned %v, yet %d LPs, min-stage %v", name, g.PrunedStageCounts, g.LPSolves, g.UsedMinStageFallback)
		}
		pruned += len(g.PrunedStageCounts)
		t.Logf("%s: S = %d; unpruned %v, %d nodes, %d LPs; pruned %v of %v, %d nodes, %d LPs, %v",
			name, g.BestStageCount, mid.Sub(start).Round(time.Millisecond), w.Nodes, w.LPSolves,
			g.PrunedStageCounts, g.TriedStageCounts, g.Nodes, g.LPSolves, time.Since(mid).Round(time.Millisecond))
	}
	if pruned == 0 {
		t.Error("the bound resolved no candidate on any shape")
	}
}

// TestRootBoundResolvesMinStagePlans pins the four default plans that
// are min-stage: 51B on Topo 2+2, 1+3 and 4+4 and 15B on Topo 4+4. The
// root bound proves min-stage better than every candidate, so the sweep
// formulates nothing: every tried candidate is pruned, no LP runs, no
// solve time is charged, and the sweep is proven.
func TestRootBoundResolvesMinStagePlans(t *testing.T) {
	for _, sh := range []struct {
		m      model.Config
		groups []int
	}{
		{model.GPT51B, []int{2, 2}}, {model.GPT51B, []int{1, 3}}, {model.GPT51B, []int{4, 4}}, {model.GPT15B, []int{4, 4}},
	} {
		_, st, err := MIP(planParams(t, sh.m, sh.groups...), MIPOptions{DisableCache: true})
		if err != nil {
			t.Fatalf("%s %v: %v", sh.m.Name, sh.groups, err)
		}
		if !st.UsedMinStageFallback || !st.Proven || st.LPSolves != 0 || st.SolveTime != 0 ||
			len(st.TriedStageCounts) == 0 || !slices.Equal(st.PrunedStageCounts, st.TriedStageCounts) {
			t.Errorf("%s %v: %+v; want every candidate pruned and min-stage chosen", sh.m.Name, sh.groups, *st)
		}
	}
}
