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
	// Oracle is the dense kernel, without the breakdown guard.
	Oracle
)

// Trace is what SolveTraced records of a solve: every pivot in order,
// and how often each mirror outcome occurred. MirrorEntered counts >=-row
// artificials that entered the basis while mirrored, MirrorWrittenOut
// the surplus/artificial pairs written out for good because a member
// entered with a scaled pivot element x*(1/x) != 1. The oracle mirrors
// nothing. Phase1End, when phase 1 ends feasible, is the whole tableau
// at that point, before the artificials are retired: every column
// (each still-mirrored artificial written out as -col(surplus)) and
// then the objective row.
type Trace struct {
	Pivots                          []Pivot
	MirrorEntered, MirrorWrittenOut int
	Phase1End                       []float64
}

// SolveTraced solves p with kernel k and returns its trace.
func SolveTraced(p *Problem, k Kernel) (*Solution, Trace, error) {
	var tr Trace
	sc := &Scratch{
		observe: func(r, c int) { tr.Pivots = append(tr.Pivots, Pivot{Enter: c, Leave: r}) },
		onMirror: func(forGood bool) {
			if forGood {
				tr.MirrorWrittenOut++
			} else {
				tr.MirrorEntered++
			}
		},
		atPhase1End: func(t *tableau) {
			for j := t.artAt; j < t.total; j++ {
				if t.mirrored(j) {
					t.writeOut(j)
				}
			}
			tr.Phase1End = append(append([]float64(nil), t.a...), t.obj...)
		},
	}
	switch k {
	case GoLoop:
		sc.axpy = axpyNegGo
	case Oracle:
		sc.dense = densePivot
		sc.unchecked = true
	}
	sol, err := p.SolveWith(sc)
	return sol, tr, err
}

// Clone returns an independent copy of the problem (constraint rows are
// shared: they are immutable after AddConstraint).
func (p *Problem) Clone() *Problem {
	return p.CloneInto(&Problem{})
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
