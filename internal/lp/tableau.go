package lp

import "math"

// tableau is the simplex working state. Structural variables are shifted
// by their lower bounds (y = x - lo >= 0); finite upper bounds become
// explicit rows. Column layout: [0,n) structural, [n, n+slacks)
// slack/surplus, [n+slacks, total) artificial; column total is the RHS.
// The entries are stored column-major, so a column is one contiguous
// length-m vector. Phase 2 retires the artificial columns, moving the RHS
// to column artAt.
//
// A >= row's artificial starts as the exact negation of the row's
// surplus column, and every pivot that enters neither keeps it so: the
// pivot scales both row-r entries by the same inverse and gives both
// columns the same update with negated operands, and IEEE rounding is
// symmetric under negation. While a pair is mirrored the artificial's
// column is not stored or updated: its row-r entry is read as the
// negated surplus entry, and the whole column is written out as
// -col(surplus) when the artificial enters. A pivot that enters either
// member with a scaled pivot element x*(1/x) != 1 leaves rounding
// residue in the other instead of an exact zero, so it writes the pair
// out for good.
type tableau struct {
	p *Problem

	m      int // rows
	total  int // columns excluding RHS (the RHS is column total)
	nArt   int
	artAt  int // first artificial column
	priced int // columns [0, priced) may enter the basis

	a     []float64 // m x (total+1), column-major: a[c*m+r]
	obj   []float64 // total+1: reduced costs, last = -objValue
	basis []int     // basic variable per row
	basic []bool    // whether each column is basic (the RHS never is)
	nz    []int     // nonzero columns of the current pivot row
	// factor holds priceOut's per-row multipliers.
	factor []float64
	// mirror holds, for each member of a mirrored surplus/artificial
	// pair, the other member's column; -1 elsewhere, the RHS included.
	mirror []int

	iter    int
	maxIter int
	pivots  int

	abort       func() bool
	observe     func(r, c int)
	dense       func(t *tableau, r, c int)
	axpy        func(y, x []float64, p float64)
	onMirror    func(forGood bool)
	atPhase1End func(t *tableau)
	guard       bool // stop with Numerical on a basic value below -feasTol
}

// abortEvery is the pivot interval at which a solve polls its abort
// function.
const abortEvery = 64

func (t *tableau) at(r, c int) float64     { return t.a[c*t.m+r] }
func (t *tableau) set(r, c int, v float64) { t.a[c*t.m+r] = v }

// col returns column c of the tableau.
func (t *tableau) col(c int) []float64 { return t.a[c*t.m : (c+1)*t.m] }

type rowSpec struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// growFloats returns a zeroed float slice of length n, reusing s's
// backing array when its capacity allows.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func newTableau(p *Problem, sc *Scratch) *tableau {
	// Gather rows: explicit constraints plus upper-bound rows, with lower
	// bounds substituted out.
	rows := sc.rows[:0]
	for _, c := range p.constraints {
		rhs := c.rhs
		for _, tm := range c.terms {
			rhs -= tm.Coeff * p.lower[tm.Var]
		}
		rows = append(rows, rowSpec{terms: c.terms, rel: c.rel, rhs: rhs})
	}
	// Size the term arena before taking subslices: a later append must not
	// move earlier rows' term storage. Negative-rhs constraint rows need a
	// sign-flipped copy; each finite upper bound needs a one-term row.
	need := 0
	for i := range rows {
		if rows[i].rhs < 0 {
			need += len(rows[i].terms)
		}
	}
	for i := 0; i < p.n; i++ {
		if !math.IsInf(p.upper[i], 1) {
			need++
		}
	}
	arena := sc.terms[:0]
	if cap(arena) < need {
		arena = make([]Term, 0, need)
	}
	for i := 0; i < p.n; i++ {
		if !math.IsInf(p.upper[i], 1) {
			arena = append(arena, Term{Var: i, Coeff: 1})
			rows = append(rows, rowSpec{
				terms: arena[len(arena)-1 : len(arena) : len(arena)],
				rel:   LE,
				rhs:   p.upper[i] - p.lower[i],
			})
		}
	}

	m := len(rows)
	// Count columns: one slack per inequality; artificials per GE/EQ row
	// after sign normalization.
	nSlack, nArt := 0, 0
	for i := range rows {
		if rows[i].rhs < 0 {
			// Flip the row so RHS >= 0.
			start := len(arena)
			for _, tm := range rows[i].terms {
				arena = append(arena, Term{Var: tm.Var, Coeff: -tm.Coeff})
			}
			rows[i].terms = arena[start:len(arena):len(arena)]
			rows[i].rhs = -rows[i].rhs
			switch rows[i].rel {
			case LE:
				rows[i].rel = GE
			case GE:
				rows[i].rel = LE
			}
		}
		switch rows[i].rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	sc.rows = rows
	sc.terms = arena

	total := p.n + nSlack + nArt
	sc.a = growFloats(sc.a, m*(total+1))
	sc.obj = growFloats(sc.obj, total+1)
	sc.basis = growInts(sc.basis, m)
	sc.basic = growBools(sc.basic, total+1)
	sc.factor = growFloats(sc.factor, m)
	sc.mirror = growInts(sc.mirror, total+1)
	for j := range sc.mirror {
		sc.mirror[j] = -1
	}
	t := &tableau{
		p:           p,
		m:           m,
		total:       total,
		nArt:        nArt,
		artAt:       p.n + nSlack,
		priced:      total,
		a:           sc.a,
		obj:         sc.obj,
		basis:       sc.basis,
		basic:       sc.basic,
		nz:          sc.nz[:0],
		factor:      sc.factor,
		mirror:      sc.mirror,
		maxIter:     200 * (m + p.n + 10),
		abort:       sc.Abort,
		observe:     sc.observe,
		dense:       sc.dense,
		axpy:        sc.axpy,
		onMirror:    sc.onMirror,
		atPhase1End: sc.atPhase1End,
		guard:       !sc.unchecked,
	}
	if t.axpy == nil {
		t.axpy = axpyNeg
	}

	slack := p.n
	art := t.artAt
	for r, row := range rows {
		for _, tm := range row.terms {
			t.set(r, tm.Var, t.at(r, tm.Var)+tm.Coeff)
		}
		t.set(r, total, row.rhs)
		switch row.rel {
		case LE:
			t.set(r, slack, 1)
			t.basis[r] = slack
			slack++
		case GE:
			t.set(r, slack, -1)
			slack++
			t.set(r, art, 1)
			t.basis[r] = art
			if t.dense == nil {
				t.mirror[slack-1], t.mirror[art] = art, slack-1
			}
			art++
		case EQ:
			t.set(r, art, 1)
			t.basis[r] = art
			art++
		}
		t.basic[t.basis[r]] = true
	}
	return t
}

// phase1 minimizes the sum of artificial variables to find a feasible
// basis.
func (t *tableau) phase1() Status {
	if t.nArt == 0 {
		return Optimal
	}
	// Objective: sum of artificials, priced out over the artificial basis.
	t.priceOut(func(j int) float64 {
		if j >= t.artAt && j < t.total {
			return 1
		}
		return 0
	})
	st := t.iterate()
	if st == Unbounded {
		// The phase-1 objective is bounded below by zero: a ray means
		// the tableau has broken down, which proves nothing. The
		// unchecked oracle calls it Infeasible.
		if t.guard {
			return Numerical
		}
		return Infeasible
	}
	if st != Optimal {
		return st
	}
	if -t.obj[t.total] > feasTol {
		return Infeasible
	}
	// Drive any zero-level artificial out of the basis if possible, then
	// retire the artificial columns.
	for r := 0; r < t.m; r++ {
		if t.basis[r] < t.artAt {
			continue
		}
		pivoted := false
		for j := 0; j < t.artAt; j++ {
			if math.Abs(t.at(r, j)) > pivotEps {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: leave the artificial basic at zero.
			t.set(r, t.total, 0)
		}
	}
	if t.atPhase1End != nil {
		t.atPhase1End(t)
	}
	t.retireArtificials()
	return Optimal
}

// retireArtificials bans the artificial columns from phase 2: they are
// never priced or pivoted on again, so their entries would be updated and
// never read. The sparse kernel drops them by moving the RHS column down
// to column artAt; the dense oracle keeps the full layout, so the
// differential tests hold the compaction to it too. An artificial left
// basic in a redundant row keeps its column index, so the ratio test's
// tie-break on basis indices is unchanged. The retired columns' basic
// flags are cleared: column artAt now holds the RHS, which the pivot row
// pass must scale.
func (t *tableau) retireArtificials() {
	t.priced = t.artAt
	if t.dense != nil {
		return
	}
	for j := range t.mirror {
		t.mirror[j] = -1
	}
	copy(t.col(t.artAt), t.col(t.total))
	t.a = t.a[:t.m*(t.artAt+1)]
	t.obj = t.obj[:t.artAt+1]
	clear(t.basic[t.artAt:])
	t.total = t.artAt
}

// phase2 optimizes the real objective from the feasible basis.
func (t *tableau) phase2() Status {
	t.priceOut(func(j int) float64 {
		if j < t.p.n {
			return t.p.objective[j]
		}
		return 0
	})
	return t.iterate()
}

// priceOut sets obj to the reduced costs of the objective cost over the
// current basis: obj[j] = cost(j) - sum over rows r of
// cost(basis[r])*a[r][j], skipping rows whose basic column costs
// nothing. It runs one contiguous column at a time, and each obj[j] gets
// its subtractions in row order, so the bits are those of subtracting
// whole rows one after another. The row list borrows the pivot-row
// index, which is free until the next pivot.
func (t *tableau) priceOut(cost func(j int) float64) {
	rows, factor := t.nz[:0], t.factor[:0]
	for r, b := range t.basis {
		if f := cost(b); f != 0 {
			rows = append(rows, r)
			factor = append(factor, f)
		}
	}
	for j := range t.obj {
		v, col := cost(j), t.col(j)
		for k, r := range rows {
			v -= factor[k] * col[r]
		}
		t.obj[j] = v
	}
	t.nz = rows
}

// iterate runs simplex pivots until optimality, unboundedness, the
// iteration limit, an abort or a breakdown. Dantzig pricing with a Bland
// fallback under prolonged degeneracy guards against cycling. The ratio
// test reads every basic value, so it also checks them: a value below
// -feasTol means the tableau has lost primal feasibility (a healthy solve
// stays within float noise of zero), and the solve stops with Numerical
// before the pivot it would have made.
func (t *tableau) iterate() Status {
	degenerate := 0
	for ; t.iter < t.maxIter; t.iter++ {
		if t.abort != nil && t.iter%abortEvery == 0 && t.abort() {
			return IterLimit
		}
		bland := degenerate > 2*(t.m+1)

		enter := -1
		best := -eps
		for j := 0; j < t.priced; j++ {
			rc := t.obj[j]
			if rc < -eps {
				if bland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		if t.mirrored(enter) {
			t.writeOut(enter)
			if t.onMirror != nil {
				t.onMirror(false)
			}
		}

		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		rhs, ec := t.col(t.total), t.col(enter)
		for r := 0; r < t.m; r++ {
			if t.guard && rhs[r] < -feasTol {
				return Numerical
			}
			arj := ec[r]
			if arj <= pivotEps {
				continue
			}
			ratio := rhs[r] / arj
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || t.basis[r] < t.basis[leave])) {
				bestRatio = ratio
				leave = r
			}
		}
		if leave < 0 {
			return Unbounded
		}
		if bestRatio < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(leave, enter)
	}
	return IterLimit
}

// mirrored reports whether column j is an artificial whose column is
// not stored: it reads as the negation of its surplus column.
func (t *tableau) mirrored(j int) bool { return j >= t.artAt && t.mirror[j] >= 0 }

// writeOut stores mirrored artificial column j as the exact negation of
// its surplus column.
func (t *tableau) writeOut(j int) {
	src := t.col(t.mirror[j])
	for i, v := range src {
		t.a[j*t.m+i] = -v
	}
}

// pivot makes column c basic in row r. It scales row r, then updates
// each nonzero column j of the scaled row as one vector,
// col_j -= f*p_j, where f is column c with its row-r entry zeroed and p_j
// is row r's entry in column j; column c then becomes the unit vector.
// Every updated entry gets the dense kernel's one rounded multiply and
// one rounded subtract of the same operands (multiplication commutes).
// A row whose multiplier is zero, which the dense kernel skips, gets
// y - 0*p_j, and a column left out for a zero p_j is one the dense kernel
// would give y - f*0: for finite entries either can change only the sign
// of a zero, which no comparison reads. The row pass skips every basic
// column but basis[r]: each is an exact unit vector with its one in
// another row, so its row-r entry is a zero that scaling could change
// only in sign, and it is never updated. A mirrored artificial's row-r
// entry is the negated scaled surplus entry, stored in its own column
// (the one entry of it ever read) before f[r] is zeroed, which matters
// when the surplus is column c; the column update skips it. So the
// sparse update takes the dense kernel's pivot path with the same float
// bits.
func (t *tableau) pivot(r, c int) {
	t.pivots++
	if t.observe != nil {
		t.observe(r, c)
	}
	if t.dense != nil {
		t.dense(t, r, c)
		return
	}
	m, a := t.m, t.a
	inv := 1 / a[c*m+r]
	if o := t.mirror[c]; o >= 0 && a[c*m+r]*inv != 1 {
		if c < t.artAt {
			t.writeOut(o) // c is the surplus; an entering artificial is written out already
		}
		t.mirror[c], t.mirror[o] = -1, -1
		if t.onMirror != nil {
			t.onMirror(true)
		}
	}
	nz := t.nz[:0]
	basic, leaving := t.basic[:t.total+1], t.basis[r]
	for j, k := 0, r; j <= t.total; j, k = j+1, k+m {
		if basic[j] && j != leaving {
			continue
		}
		if t.mirrored(j) {
			a[k] = -a[t.mirror[j]*m+r] // the surplus precedes j: scaled, or a basic zero
		} else {
			a[k] *= inv
		}
		if a[k] != 0 {
			nz = append(nz, j)
		}
	}
	t.nz = nz

	f := t.col(c)
	f[r] = 0 // row r keeps its scaled entries: y - 0*p = y
	g := t.obj[c]
	axpy := t.axpy
	for _, j := range nz {
		if j == c {
			continue
		}
		col := t.col(j)
		p := col[r]
		if !t.mirrored(j) {
			axpy(col, f, p)
		}
		if g != 0 {
			t.obj[j] -= g * p
		}
	}
	if g != 0 {
		t.obj[c] = 0
	}
	clear(f)
	f[r] = 1
	basic[leaving], basic[c] = false, true
	t.basis[r] = c
}

// extract reads the structural solution, undoing the lower-bound shift.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.p.n)
	copy(x, t.p.lower)
	for r := 0; r < t.m; r++ {
		b := t.basis[r]
		if b < t.p.n {
			x[b] += t.at(r, t.total)
		}
	}
	return x
}
