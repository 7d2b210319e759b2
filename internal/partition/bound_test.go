package partition

import (
	"context"
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

// TestLazySweepMatchesEager holds the lazy sweep to the eager one, which
// solves the MILP of every candidate the patience rule reaches, in
// order: the same stage sizes, step time bits, S, min-stage flag and
// tried candidates, at Parallelism 1 and 2, and the same MIPStats at
// both levels but for SolveTime. Every tried candidate the lazy sweep
// solved must come back with the eager sweep's step bits, and every one
// it resolved by a bound must have an interval that holds the eager
// sweep's result for it. The time limit is lifted, so only the node
// limit bounds a MILP and neither side depends on the host's speed. By
// default it covers 3B on Topo 2+2, whose S = 20 candidate its root
// resolves, 51B on Topo 4+4, which the root bound resolves whole, and a
// 3B on Topo 2+2 sweep at M = 8 with one node per MILP, whose S = 8
// candidate its root resolves while the eager sweep hands it its
// balanced fallback; with MOBIUS_CHECK_LP set (make check-lp), also
// every Table 3 model on Topo 2+2, 1+3 and 4+4 at M = N, and on Topo 2+2
// at M = 2N. A shape whose planning parameters equal an earlier one's
// (1+3 plans as 2+2 does) is the same sweep, and runs once.
func TestLazySweepMatchesEager(t *testing.T) {
	type shape struct {
		m        model.Config
		groups   []int
		M, nodes int
	}
	shapes := []shape{{model.GPT3B, []int{2, 2}, 0, 0}, {model.GPT51B, []int{4, 4}, 0, 0}, {model.GPT3B, []int{2, 2}, 8, 1}}
	if os.Getenv("MOBIUS_CHECK_LP") != "" {
		for _, m := range model.Table3() {
			for _, groups := range [][]int{{2, 2}, {1, 3}, {4, 4}} {
				shapes = append(shapes, shape{m, groups, 0, 0})
			}
			shapes = append(shapes, shape{m, []int{2, 2}, 8, 0})
		}
	}
	bounded := 0
	seen := map[string]bool{}
	for _, sh := range shapes {
		params := planParams(t, sh.m, sh.groups...)
		params.Microbatches = sh.M
		params = params.withDefaults()
		opts := MIPOptions{DisableCache: true, TimeLimit: 10 * time.Minute, NodeLimit: sh.nodes}
		name := fmt.Sprintf("%s %v M=%d", sh.m.Name, sh.groups, params.Microbatches)
		key := fmt.Sprintf("%s %d %d %v %v %v %d", sh.m.Name, params.NumGPUs, params.Microbatches, params.GPUMem, params.Bandwidth, params.Latency, sh.nodes)
		if seen[key] {
			continue
		}
		seen[key] = true
		sweep := func(par int, lazily bool) (*Partition, *MIPStats, []*cand) {
			defer func() { lazy = true }()
			lazy = lazily
			opts.Parallelism = par
			part, st, cs, err := mipSolve(context.Background(), params, opts)
			if err != nil {
				t.Fatalf("%s at Parallelism %d, lazy %v: %v", name, par, lazily, err)
			}
			return part, st, cs
		}
		start := time.Now()
		wantPart, w, wcs := sweep(1, false)
		if len(w.resolvedBy(RootBound))+len(w.resolvedBy(RootLP)) != 0 {
			t.Errorf("%s: the eager sweep resolved %v by a bound", name, w.Resolutions)
		}
		eagerTime := time.Since(start)
		var first *MIPStats
		for _, par := range []int{1, 2} {
			start := time.Now()
			gotPart, g, cs := sweep(par, true)
			if got, want := fmt.Sprintf("%+v", gotPart.Stages), fmt.Sprintf("%+v", wantPart.Stages); got != want {
				t.Errorf("%s at Parallelism %d: stages\n%s\nwant\n%s", name, par, got, want)
			}
			if g.BestStageCount != w.BestStageCount || math.Float64bits(g.StepTime) != math.Float64bits(w.StepTime) ||
				g.UsedMinStageFallback != w.UsedMinStageFallback || !slices.Equal(g.TriedStageCounts, w.TriedStageCounts) {
				t.Errorf("%s at Parallelism %d: S = %d, step %v, min-stage %v, tried %v; eager S = %d, step %v, min-stage %v, tried %v",
					name, par, g.BestStageCount, g.StepTime, g.UsedMinStageFallback, g.TriedStageCounts,
					w.BestStageCount, w.StepTime, w.UsedMinStageFallback, w.TriedStageCounts)
			}
			if g.Nodes > w.Nodes || g.LPSolves > w.LPSolves {
				t.Errorf("%s at Parallelism %d: %d nodes, %d LPs; eager %d, %d", name, par, g.Nodes, g.LPSolves, w.Nodes, w.LPSolves)
			}
			for i := range min(len(g.TriedStageCounts), len(w.TriedStageCounts)) {
				c, e := cs[i], wcs[i]
				s := c.span()
				switch {
				case !e.done || e.err != nil:
					t.Errorf("%s: the eager sweep left S = %d unsolved: %v", name, e.S, e.err)
				case c.done && (c.part == nil) != (e.part == nil):
					t.Errorf("%s at Parallelism %d: S = %d came back %v, eagerly %v", name, par, c.S, c.part != nil, e.part != nil)
				case c.done && math.Float64bits(c.t) != math.Float64bits(e.t):
					t.Errorf("%s at Parallelism %d: S = %d came back at %v, eagerly %v", name, par, c.S, c.t, e.t)
				case !c.done && (e.part == nil && !s.none || e.part != nil && !(s.lo <= e.t && e.t <= s.hi)):
					t.Errorf("%s at Parallelism %d: S = %d, resolved by its %v in [%v, %v] (none %v), came back eagerly at %v (partition %v)",
						name, par, c.S, c.how, s.lo, s.hi, s.none, e.t, e.part != nil)
				}
			}
			g.SolveTime = 0
			if first == nil {
				first = g
			} else if got, want := fmt.Sprintf("%+v", *g), fmt.Sprintf("%+v", *first); got != want {
				t.Errorf("%s at Parallelism %d: stats\n%s\nat Parallelism 1\n%s", name, par, got, want)
			}
			t.Logf("%s at Parallelism %d: S = %d, %v; eager %d nodes, %d LPs in %v; lazy %d, %d in %v",
				name, par, g.BestStageCount, g.Resolutions, w.Nodes, w.LPSolves, eagerTime.Round(time.Millisecond),
				g.Nodes, g.LPSolves, time.Since(start).Round(time.Millisecond))
		}
		bounded += len(first.resolvedBy(RootBound)) + len(first.resolvedBy(RootLP))
	}
	if bounded == 0 {
		t.Error("no bound resolved a candidate on any shape")
	}
}

// TestRootBoundResolvesMinStagePlans pins the four default plans that
// are min-stage: 51B on Topo 2+2, 1+3 and 4+4 and 15B on Topo 4+4. The
// root bound proves min-stage better than every candidate, so the sweep
// formulates nothing: the root bound resolves every tried candidate, no LP runs, no
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
			len(st.TriedStageCounts) == 0 || !slices.Equal(st.resolvedBy(RootBound), st.TriedStageCounts) {
			t.Errorf("%s %v: %+v; want every candidate resolved by the root bound and min-stage chosen", sh.m.Name, sh.groups, *st)
		}
	}
}
