package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// outcome is one concrete result of a candidate's solve: a step time,
// no partition, or a failure.
type outcome struct {
	t            float64
	none, failed bool
}

// eagerReplay is the sweep's replay over concrete outcomes, as the eager
// sweep runs it: in order, a candidate improves on strictly less, the
// patience rule stops after mipPatience non-improving ones, a failure
// stops the sweep, and the min-stage step tMS is compared last.
func eagerReplay(outs []outcome, tMS float64) verdict {
	best, bestT, since := -1, math.Inf(1), 0
	for i, o := range outs {
		switch {
		case o.failed:
			return verdict{chosen: i, tried: i + 1, failed: true}
		case o.none:
			continue
		case o.t < bestT:
			best, bestT, since = i, o.t, 0
		default:
			if since++; since >= mipPatience {
				return verdict{chosen: best, tried: i + 1}
			}
		}
	}
	if tMS < bestT {
		return verdict{chosen: len(outs), tried: len(outs)}
	}
	return verdict{chosen: best, tried: len(outs)}
}

// outcomes lists what solveOne may return for c: its result once
// resolved; otherwise the balanced fallback (or none without one), and
// MILP partitions from lb up to just below hi, at the grid values, the
// midpoints between them and the ends.
func outcomes(c *cand, grid []float64) []outcome {
	switch {
	case c.done && c.err != nil:
		return []outcome{{failed: true}}
	case c.done && c.part == nil:
		return []outcome{{none: true}}
	case c.done:
		return []outcome{{t: c.t}}
	}
	outs := []outcome{{none: true}}
	if c.hasBal {
		outs = []outcome{{t: c.tBal}}
	}
	if c.lb >= c.hi {
		return outs
	}
	points := []float64{c.lb, math.Nextafter(c.hi, math.Inf(-1))}
	for k, g := range grid {
		points = append(points, g)
		if k > 0 {
			points = append(points, (grid[k-1]+g)/2)
		}
	}
	for _, x := range points {
		if x >= c.lb && x < c.hi {
			outs = append(outs, outcome{t: x})
		}
	}
	return outs
}

// checkReplay runs replay over the spans of cs and, when it decides,
// holds its verdict to eagerReplay over every combination of the
// candidates' outcomes (a random sample of at most limit of them when
// there are more). When it does not, stuck must name an unresolved
// candidate.
func checkReplay(t *testing.T, cs []*cand, tMS float64, grid []float64, limit int, r *rand.Rand) (decided bool) {
	t.Helper()
	spans := make([]span, len(cs))
	for i, c := range cs {
		spans[i] = c.span()
	}
	v, stuck := replay(spans, tMS)
	if stuck >= 0 {
		if stuck >= len(cs) || cs[stuck].done {
			t.Fatalf("%s: stuck on %d, which is resolved", describe(cs, tMS), stuck)
		}
		return false
	}
	sets := make([][]outcome, len(cs))
	total := 1
	for i, c := range cs {
		sets[i] = outcomes(c, grid)
		total *= len(sets[i])
	}
	outs := make([]outcome, len(cs))
	check := func() {
		if got := eagerReplay(outs, tMS); got != v {
			t.Fatalf("%s: replay decided %+v, but outcomes %+v reach %+v", describe(cs, tMS), v, outs, got)
		}
	}
	if total <= limit {
		var walk func(i int)
		walk = func(i int) {
			if i == len(cs) {
				check()
				return
			}
			for _, o := range sets[i] {
				outs[i] = o
				walk(i + 1)
			}
		}
		walk(0)
		return true
	}
	for k := 0; k < limit; k++ {
		for i := range outs {
			outs[i] = sets[i][r.Intn(len(sets[i]))]
		}
		check()
	}
	return true
}

func describe(cs []*cand, tMS float64) string {
	s := fmt.Sprintf("min-stage %v;", tMS)
	for i, c := range cs {
		switch {
		case c.done && c.err != nil:
			s += fmt.Sprintf(" [%d failed]", i)
		case c.done && c.part == nil:
			s += fmt.Sprintf(" [%d none]", i)
		case c.done:
			s += fmt.Sprintf(" [%d = %v]", i, c.t)
		case c.hasBal:
			s += fmt.Sprintf(" [%d in %v..%v, balanced %v]", i, c.lb, c.hi, c.tBal)
		default:
			s += fmt.Sprintf(" [%d in %v..%v, no balanced]", i, c.lb, c.hi)
		}
	}
	return s
}

// kinds lists every candidate the replay tests draw from: resolved to
// no partition, to a failure or to a step time on the grid, and
// unresolved with every lower bound and incumbent on the grid, with no
// balanced fallback or one at 2 or 4.
func kinds(grid []float64) []func() *cand {
	var ks []func() *cand
	ks = append(ks,
		func() *cand { return &cand{done: true} },
		func() *cand { return &cand{done: true, err: errors.New("failed")} },
	)
	for _, g := range grid {
		ks = append(ks, func() *cand { return &cand{done: true, part: &Partition{}, t: g} })
	}
	for _, lb := range grid {
		for _, hi := range grid {
			ks = append(ks, func() *cand { return &cand{lb: lb, hi: hi} })
			for _, bal := range []float64{2, 4} {
				ks = append(ks, func() *cand { return &cand{lb: lb, hi: hi, tBal: bal, hasBal: true} })
			}
		}
	}
	return ks
}

// TestReplayMatchesEagerReplay holds the lazy sweep's replay, over the
// spans its candidates give, to the eager replay over every outcome
// their solves may return: whenever it decides, every combination of
// outcomes reaches its verdict, chosen candidate and tried count alike.
// It enumerates every list of up to three candidates drawn from kinds
// (no partition, failures, ties on the grid, balanced fallbacks above
// the incumbent, empty MILP ranges) against a min-stage step tied with
// the grid, between it, and absent, and samples lists of four to six,
// where the patience rule stops before the last candidate.
func TestReplayMatchesEagerReplay(t *testing.T) {
	grid := []float64{1, 2, 3}
	ks := kinds(grid)
	mins := []float64{2, 2.5, math.Inf(1)}
	r := rand.New(rand.NewSource(1))
	lists, decided := 0, 0
	var each func(cs []*cand, n int)
	each = func(cs []*cand, n int) {
		if len(cs) == n {
			for _, tMS := range mins {
				lists++
				if checkReplay(t, cs, tMS, grid, 1000, r) {
					decided++
				}
			}
			return
		}
		for _, k := range ks {
			each(append(cs, k()), n)
		}
	}
	for n := 0; n <= 3; n++ {
		each(nil, n)
	}
	for k := 0; k < 20000; k++ {
		cs := make([]*cand, 4+r.Intn(3))
		for i := range cs {
			cs[i] = ks[r.Intn(len(ks))]()
		}
		lists++
		if checkReplay(t, cs, mins[r.Intn(len(mins))], grid, 300, r) {
			decided++
		}
	}
	if decided*8 < lists {
		t.Errorf("replay decided %d of %d candidate lists", decided, lists)
	}
	t.Logf("replay decided %d of %d candidate lists", decided, lists)
}

// TestReplaySkipsDominatedCandidate is the 3B on Topo 2+2 sweep in
// miniature: with S = 24 solved below the least step S = 20 can take,
// the replay chooses S = 24 with S = 20 unresolved; before it is
// solved, it resolves S = 24, the one compared where the verdicts part.
func TestReplaySkipsDominatedCandidate(t *testing.T) {
	fixed := func(t float64) span { return span{resolved: true, lo: t, hi: t} }
	spans := []span{fixed(6.46), fixed(5.27), fixed(4.81), fixed(4.68),
		{lo: 4.4087, hi: 4.5543}, {lo: 4.2902, hi: 4.4325}}
	if v, stuck := replay(spans, 4.7175); stuck != 5 {
		t.Errorf("replay decided %+v, stuck %d; want stuck on S = 24", v, stuck)
	}
	spans[5] = fixed(4.2920)
	if v, stuck := replay(spans, 4.7175); stuck != -1 || v != (verdict{chosen: 5, tried: 6}) {
		t.Errorf("replay decided %+v, stuck %d; want S = 24 chosen of six tried", v, stuck)
	}
}
