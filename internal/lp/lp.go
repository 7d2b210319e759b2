// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  A·x {<=,=,>=} b
//	            lo <= x <= hi   (lo >= 0)
//
// It is the linear-programming core underneath internal/milp, which
// together replace the Gurobi Optimizer the paper uses to solve the MIP
// partition problem (§3.2).
//
// The implementation is a tableau simplex with Dantzig pricing, a
// Bland's-rule fallback to escape degenerate cycling, and a two-phase
// start (artificial variables) for infeasible initial bases. Lower bounds
// are shifted out; every finite upper bound becomes an explicit row. The
// tableau is stored densely and column-major, so each column is one
// contiguous vector. A pivot updates only the nonzero columns of its
// scaled pivot row, each as col_j -= f*p_j with f the pivot column: in
// an AVX2 kernel (VMULPD then VSUBPD, no FMA) on amd64 hosts where CPUID
// reports AVX2, chosen once at package init, and in a Go loop everywhere
// else. Every updated entry gets the textbook kernel's one rounded
// multiply and one rounded subtract of the same operands (multiplication
// commutes), and an entry the textbook kernel skips or leaves out can
// differ only in the sign of a zero, which no comparison reads. The pass
// that scales the pivot row skips the basic columns other than the
// leaving one: each is an exact unit vector with its one in another row,
// so its entry there is a zero that scaling could change only in sign.
//
// Each phase prices out its starting basis one contiguous column at a
// time. A >= row's artificial column is the exact negation of the row's
// surplus column (IEEE rounding is symmetric under negation) until one
// of the two enters with a scaled pivot element x*(1/x) != 1, so phase 1
// neither stores nor updates it: its pivot-row entry is read off the
// surplus, and the column is written out when the artificial enters or
// the pair splits. The artificial columns are dropped once phase 1 ends.
// So neither the layout nor the kernel changes the sequence of pivots or
// the float bits of any result; the dense textbook kernel, which keeps
// and updates every column, is kept as a test-only oracle that holds
// them to it.
//
// One check stops solves whose outcome is already decided, without
// changing any pivot before it fires. A basic value below -feasTol, seen
// by the ratio test, or a phase-1 ray means the tableau has broken down,
// and the solve stops with Numerical: the pivots after a breakdown can
// only end in a status nobody can trust.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // ==
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Numerical means the tableau lost primal feasibility (a basic
	// value fell below -feasTol) or phase 1 claimed an unbounded ray,
	// which exact arithmetic rules out. The solve stops there: its
	// outcome is unknown, not Infeasible.
	Numerical
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Numerical:
		return "numerical"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. All variables are
// non-negative by default with infinite upper bound.
type Problem struct {
	n           int
	objective   []float64
	constraints []constraint
	lower       []float64
	upper       []float64

	// buildErr records the first invalid builder call (e.g. a negative
	// lower bound); Solve returns it instead of panicking mid-build.
	buildErr error
}

// NewProblem creates a problem with n non-negative variables.
func NewProblem(n int) *Problem {
	p := &Problem{
		n:         n,
		objective: make([]float64, n),
		lower:     make([]float64, n),
		upper:     make([]float64, n),
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// SetObjectiveCoeff sets the cost of variable i (minimization).
func (p *Problem) SetObjectiveCoeff(i int, c float64) { p.objective[i] = c }

// AddConstraint appends Σ terms rel rhs. Terms with duplicate variables
// are summed.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	own := make([]Term, len(terms))
	copy(own, terms)
	p.constraints = append(p.constraints, constraint{terms: own, rel: rel, rhs: rhs})
}

// SetBounds sets lo <= x_i <= hi. lo must be >= 0; a negative lower bound
// is recorded as a build error that Solve returns.
func (p *Problem) SetBounds(i int, lo, hi float64) {
	if lo < 0 {
		if p.buildErr == nil {
			p.buildErr = fmt.Errorf("%w: negative lower bound %g on variable %d", ErrBadProblem, lo, i)
		}
		return
	}
	p.lower[i] = lo
	p.upper[i] = hi
}

// Bounds returns the bounds of variable i.
func (p *Problem) Bounds(i int) (lo, hi float64) { return p.lower[i], p.upper[i] }

// NumConstraints returns the number of explicit constraints.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// Constraint returns explicit constraint i. The terms are the problem's
// own and must not be modified.
func (p *Problem) Constraint(i int) (terms []Term, rel Rel, rhs float64) {
	c := p.constraints[i]
	return c.terms, c.rel, c.rhs
}

// CloneInto copies p into dst, reusing dst's backing slices where their
// capacity allows (constraint rows are shared: they are immutable after
// AddConstraint). It returns dst. Callers that clone once per
// branch-and-bound node use this with a per-worker scratch Problem to
// avoid four allocations per node.
func (p *Problem) CloneInto(dst *Problem) *Problem {
	dst.n = p.n
	dst.objective = append(dst.objective[:0], p.objective...)
	dst.constraints = append(dst.constraints[:0], p.constraints...)
	dst.lower = append(dst.lower[:0], p.lower...)
	dst.upper = append(dst.upper[:0], p.upper...)
	dst.buildErr = p.buildErr
	return dst
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64

	// Phase1Pivots and Phase2Pivots count the simplex pivots of each
	// phase; phase 1 includes the pivots that drive zero-level
	// artificials out of the basis.
	Phase1Pivots, Phase2Pivots int
	// Rows and Cols size the tableau: constraint rows plus one row per
	// finite upper bound, by structural, slack and artificial columns.
	// Both are zero when conflicting variable bounds decided the LP.
	Rows, Cols int
}

const (
	eps      = 1e-9
	pivotEps = 1e-8
	// feasTol is the primal feasibility tolerance: phase 1 calls an LP
	// infeasible when its artificials sum to more, and a basic value
	// below -feasTol is a breakdown.
	feasTol = 1e-6
)

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: invalid problem")

// Scratch is reusable solver working memory: the dense tableau, the row
// workspace, and the sign-flip term arena. A Scratch may serve any
// number of sequential SolveWith calls (it grows to the largest problem
// seen) but must not be shared by concurrent solves — pool one per
// worker goroutine.
type Scratch struct {
	// Abort, when non-nil, is polled every 64 pivots; returning true
	// stops the solve with Status IterLimit. It does not change the
	// pivot path of a solve it never stops. Solves on different scratches
	// may share one Abort and poll it at the same time (package milp
	// solves sibling LPs so), so a shared Abort must be safe for
	// concurrent calls.
	Abort func() bool

	a      []float64
	obj    []float64
	basis  []int
	basic  []bool
	nz     []int
	factor []float64
	mirror []int
	rows   []rowSpec
	terms  []Term

	// Test hooks (export_test.go): observe sees every pivot as (row,
	// column) before it is applied; dense replaces the sparse kernel and
	// the artificial-column compaction and mirroring with the retained
	// dense oracle; axpy replaces the sparse kernel's column update
	// axpyNeg; onMirror sees a mirrored artificial enter (false) and a
	// pair written out for good (true); atPhase1End sees the tableau when
	// phase 1 ends feasible, before the artificials are retired;
	// unchecked turns off the breakdown guard.
	observe     func(r, c int)
	dense       func(t *tableau, r, c int)
	axpy        func(y, x []float64, p float64)
	onMirror    func(forGood bool)
	atPhase1End func(t *tableau)
	unchecked   bool
}

// solveHook, when non-nil, sees every problem SolveWith is about to
// solve. Only tests set it, to capture the LPs callers such as the
// partition MIP solve.
var solveHook func(*Problem)

// Solve runs the two-phase simplex and returns a solution. The Status
// field distinguishes optimal, infeasible and unbounded outcomes; Solve
// returns a non-nil error only for structurally invalid input.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWith(nil)
}

// SolveWith is Solve with caller-owned scratch memory: the tableau and
// row workspace come from sc (grown as needed) instead of fresh
// allocations, removing the dominant allocation from hot
// branch-and-bound loops. A nil sc behaves exactly like Solve.
func (p *Problem) SolveWith(sc *Scratch) (*Solution, error) {
	if solveHook != nil {
		solveHook(p)
	}
	if p.buildErr != nil {
		return nil, p.buildErr
	}
	for _, c := range p.constraints {
		for _, t := range c.terms {
			if t.Var < 0 || t.Var >= p.n {
				return nil, fmt.Errorf("%w: term references variable %d of %d", ErrBadProblem, t.Var, p.n)
			}
		}
	}
	for i := 0; i < p.n; i++ {
		if p.lower[i] > p.upper[i]+eps {
			return &Solution{Status: Infeasible}, nil
		}
	}

	if sc == nil {
		sc = &Scratch{}
	}
	t := newTableau(p, sc)
	sol := &Solution{Rows: t.m, Cols: t.total}
	sol.Status = t.phase1()
	sol.Phase1Pivots = t.pivots
	if sol.Status == Optimal {
		sol.Status = t.phase2()
		sol.Phase2Pivots = t.pivots - sol.Phase1Pivots
		if sol.Status == Optimal || sol.Status == IterLimit {
			sol.X = t.extract()
			sol.Objective = dot(p.objective, sol.X)
		}
	}
	sc.nz = t.nz // keep the grown pivot-row index for the next solve
	return sol, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
