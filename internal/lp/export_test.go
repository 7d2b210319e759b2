package lp

import "sync"

// densePivot is the dense textbook kernel, kept as the oracle: it
// rewrites every column of every row with a nonzero multiplier,
// artificial columns included. The differential tests hold the sparse
// kernel and the phase-2 compaction to it, pivot for pivot and bit for
// bit.
func densePivot(t *tableau, r, c int) {
	w := t.total + 1
	prow := t.a[r*w : (r+1)*w]
	pv := prow[c]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	prow[c] = 1 // exact

	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		row := t.a[i*w : (i+1)*w]
		f := row[c]
		if f == 0 {
			continue
		}
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[c] = 0
	}
	f := t.obj[c]
	if f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * prow[j]
		}
		t.obj[c] = 0
	}
	t.basis[r] = c
}

// Pivot is one simplex pivot: the entering column and the leaving row.
type Pivot struct{ Enter, Leave int }

// SolveTraced solves p as Solve does, or, when oracle is set, with the
// dense kernel and without the presolve and the breakdown guard, and
// returns every pivot in order.
func SolveTraced(p *Problem, oracle bool) (*Solution, []Pivot, error) {
	var trace []Pivot
	sc := &Scratch{observe: func(r, c int) { trace = append(trace, Pivot{Enter: c, Leave: r}) }}
	if oracle {
		sc.dense = densePivot
		sc.unchecked = true
	}
	sol, err := p.SolveWith(sc)
	return sol, trace, err
}

// CaptureSolves returns a clone of every problem solved while f runs.
func CaptureSolves(f func()) []*Problem {
	var mu sync.Mutex
	var got []*Problem
	solveHook = func(p *Problem) {
		q := p.Clone()
		mu.Lock()
		got = append(got, q)
		mu.Unlock()
	}
	defer func() { solveHook = nil }()
	f()
	return got
}
