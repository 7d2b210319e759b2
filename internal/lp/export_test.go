package lp

import "sync"

// densePivot is the dense textbook kernel, kept as the oracle: it
// rewrites every entry of every row with a nonzero multiplier,
// artificial columns included. The differential tests hold the sparse
// kernel and the phase-2 compaction to it, pivot for pivot and bit for
// bit. Each such entry gets the textbook row[j] -= f*prow[j] through the
// Go reference loop, which the kernel test holds the assembly to; the
// order of the entries cannot change their bits, so the oracle walks the
// column-major tableau a column at a time, over runs of consecutive rows
// with a nonzero multiplier. Column c, whose entries are the
// multipliers, goes last.
func densePivot(t *tableau, r, c int) {
	m := t.m
	inv := 1 / t.at(r, c)
	for j := 0; j <= t.total; j++ {
		t.a[j*m+r] *= inv
	}
	t.set(r, c, 1) // exact

	f := t.col(c)
	var runs [][2]int // [lo, hi): rows i != r with f[i] != 0
	for i := 0; i < m; i++ {
		if i == r || f[i] == 0 {
			continue
		}
		lo := i
		for i < m && i != r && f[i] != 0 {
			i++
		}
		runs = append(runs, [2]int{lo, i})
	}
	for j := 0; j <= t.total; j++ {
		if j == c {
			continue
		}
		col := t.col(j)
		p := col[r]
		for _, run := range runs {
			axpyNegGo(col[run[0]:run[1]], f[run[0]:run[1]], p)
		}
	}
	for _, run := range runs {
		clear(f[run[0]:run[1]])
	}
	if g := t.obj[c]; g != 0 {
		for j := range t.obj {
			t.obj[j] -= g * t.at(r, j)
		}
		t.obj[c] = 0
	}
	t.basis[r] = c
}

// Pivot is one simplex pivot: the entering column and the leaving row.
type Pivot struct{ Enter, Leave int }

// Kernel names the pivot kernel SolveTraced runs.
type Kernel int

const (
	// Dispatched is the sparse kernel as Solve runs it, with the column
	// update package init chose from CPUID.
	Dispatched Kernel = iota
	// GoLoop is the sparse kernel with the column update forced to the
	// Go loop axpyNegGo.
	GoLoop
	// Oracle is the dense kernel, without the presolve and the breakdown
	// guard.
	Oracle
)

// SolveTraced solves p with kernel k and returns every pivot in order.
func SolveTraced(p *Problem, k Kernel) (*Solution, []Pivot, error) {
	var trace []Pivot
	sc := &Scratch{observe: func(r, c int) { trace = append(trace, Pivot{Enter: c, Leave: r}) }}
	switch k {
	case GoLoop:
		sc.axpy = axpyNegGo
	case Oracle:
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
