package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	return sol
}

func wantObj(t *testing.T, sol *Solution, v float64) {
	t.Helper()
	if math.Abs(sol.Objective-v) > 1e-6 {
		t.Fatalf("objective %g, want %g (x=%v)", sol.Objective, v, sol.X)
	}
}

func TestTrivialMinimum(t *testing.T) {
	// min x subject to x >= 3.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 3)
	sol := solveOK(t, p)
	wantObj(t, sol, 3)
}

func TestClassicTwoVar(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 (Dantzig's example) ->
	// min -3x-5y, optimum x=2, y=6, obj -36.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, -3)
	p.SetObjectiveCoeff(1, -5)
	p.AddConstraint([]Term{{0, 1}}, LE, 4)
	p.AddConstraint([]Term{{1, 2}}, LE, 12)
	p.AddConstraint([]Term{{0, 3}, {1, 2}}, LE, 18)
	sol := solveOK(t, p)
	wantObj(t, sol, -36)
	if math.Abs(sol.X[0]-2) > 1e-6 || math.Abs(sol.X[1]-6) > 1e-6 {
		t.Fatalf("x=%v, want [2 6]", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+y s.t. x+y=5, x<=2 -> obj 5 with x<=2.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 5)
	p.SetBounds(0, 0, 2)
	sol := solveOK(t, p)
	wantObj(t, sol, 5)
	if sol.X[0] > 2+1e-6 {
		t.Fatalf("bound violated: %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 3, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, -1) // min -x, x unbounded above
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestLowerBoundShift(t *testing.T) {
	// min x+y s.t. x+y >= 10, x >= 4, y in [3, 5].
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 10)
	p.SetBounds(0, 4, math.Inf(1))
	p.SetBounds(1, 3, 5)
	sol := solveOK(t, p)
	wantObj(t, sol, 10)
	if sol.X[0] < 4-1e-9 || sol.X[1] < 3-1e-9 || sol.X[1] > 5+1e-9 {
		t.Fatalf("bounds violated: %v", sol.X)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with min x -> x=0, y>=2.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, LE, -2)
	sol := solveOK(t, p)
	wantObj(t, sol, 2)
	if math.Abs(sol.X[1]-2) > 1e-6 {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic degenerate LP; must terminate and find optimum 0.
	p := NewProblem(3)
	p.SetObjectiveCoeff(0, -0.75)
	p.SetObjectiveCoeff(1, 150)
	p.SetObjectiveCoeff(2, -0.02)
	p.AddConstraint([]Term{{0, 0.25}, {1, -60}, {2, -0.04}}, LE, 0)
	p.AddConstraint([]Term{{0, 0.5}, {1, -90}, {2, -0.02}}, LE, 0)
	p.AddConstraint([]Term{{2, 1}}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v (Beale cycling?)", sol.Status)
	}
	wantObj(t, sol, -0.05)
}

func TestDuplicateTermsSummed(t *testing.T) {
	// (1+1)x >= 4 -> x >= 2.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]Term{{0, 1}, {0, 1}}, GE, 4)
	sol := solveOK(t, p)
	wantObj(t, sol, 2)
}

func TestBadVariableIndex(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{5, 1}}, LE, 1)
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for out-of-range variable")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 2)
	q := p.Clone()
	q.SetBounds(0, 1, 1)
	if lo, _ := p.Bounds(0); lo != 0 {
		t.Fatal("clone mutated the original")
	}
	solP := solveOK(t, p)
	solQ := solveOK(t, q)
	wantObj(t, solP, 0)
	wantObj(t, solQ, 1)
}

// TestRandomFeasibilityProperty: for random LPs built from a known
// feasible point, the solver must (a) report optimal or unbounded, and
// (b) when optimal, return a point satisfying every constraint, with an
// objective no worse than the known point's.
func TestRandomFeasibilityProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		// Known feasible point.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = r.Float64() * 10
		}
		p := NewProblem(n)
		for i := 0; i < n; i++ {
			p.SetObjectiveCoeff(i, r.Float64()*2) // non-negative costs: bounded
		}
		m := 1 + r.Intn(6)
		type row struct {
			terms []Term
			rel   Rel
			rhs   float64
		}
		var rows []row
		for k := 0; k < m; k++ {
			var terms []Term
			lhs := 0.0
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					c := r.Float64()*4 - 2
					terms = append(terms, Term{i, c})
					lhs += c * x0[i]
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := Rel(r.Intn(2)) // LE or GE; skip EQ to keep x0 feasible
			slackAmt := r.Float64() * 3
			rhs := lhs + slackAmt
			if rel == GE {
				rhs = lhs - slackAmt
			}
			p.AddConstraint(terms, rel, rhs)
			rows = append(rows, row{terms, rel, rhs})
		}
		sol, err := p.Solve()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if sol.Status != Optimal {
			t.Logf("seed %d: status %v for feasible bounded problem", seed, sol.Status)
			return false
		}
		for _, rw := range rows {
			lhs := 0.0
			for _, tm := range rw.terms {
				lhs += tm.Coeff * sol.X[tm.Var]
			}
			switch rw.rel {
			case LE:
				if lhs > rw.rhs+1e-5 {
					t.Logf("seed %d: LE violated: %g > %g", seed, lhs, rw.rhs)
					return false
				}
			case GE:
				if lhs < rw.rhs-1e-5 {
					t.Logf("seed %d: GE violated: %g < %g", seed, lhs, rw.rhs)
					return false
				}
			}
		}
		// Optimality sanity: no worse than the known feasible point.
		obj0 := 0.0
		for i := range x0 {
			obj0 += p.objective[i] * x0[i]
		}
		if sol.Objective > obj0+1e-5 {
			t.Logf("seed %d: objective %g worse than feasible point %g", seed, sol.Objective, obj0)
			return false
		}
		for i, v := range sol.X {
			if v < -1e-7 {
				t.Logf("seed %d: negative variable %d = %g", seed, i, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMediumScheduleLikeLP(t *testing.T) {
	// A chain of start-time variables with precedence gaps, mimicking the
	// pipeline-order constraints of the partition MIP: t_i >= t_{i-1}+d.
	const n = 120
	p := NewProblem(n)
	p.SetObjectiveCoeff(n-1, 1)
	for i := 1; i < n; i++ {
		p.AddConstraint([]Term{{i, 1}, {i - 1, -1}}, GE, 0.5)
	}
	sol := solveOK(t, p)
	wantObj(t, sol, 0.5*(n-1))
}

func TestLargeChainPerformance(t *testing.T) {
	// A partition-MIP-sized LP must solve in well under a second.
	const n = 300
	sol := solveOK(t, chainLP(n))
	wantObj(t, sol, 0.1*(n-1))
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
		Numerical: "numerical",
	} {
		if st.String() != want {
			t.Errorf("%d: %q", st, st.String())
		}
	}
	for r, want := range map[Rel]string{LE: "<=", GE: ">=", EQ: "=="} {
		if r.String() != want {
			t.Errorf("rel %q", r.String())
		}
	}
}

func TestEqualityWithNegativeRHS(t *testing.T) {
	// x - y == -3 with min x+y -> x=0, y=3.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]Term{{0, 1}, {1, -1}}, EQ, -3)
	sol := solveOK(t, p)
	wantObj(t, sol, 3)
}

// chainLP is a pipeline-order precedence chain, t_i >= t_{i-1} + 0.1,
// with an upper bound on every seventh start time.
func chainLP(n int) *Problem {
	p := NewProblem(n)
	p.SetObjectiveCoeff(n-1, 1)
	for i := 1; i < n; i++ {
		p.AddConstraint([]Term{{i, 1}, {i - 1, -1}}, GE, 0.1)
		if i%7 == 0 {
			p.AddConstraint([]Term{{i, 1}}, LE, float64(i))
		}
	}
	return p
}

// TestAbortPolledEvery64Pivots checks the abort function is polled once
// per 64 pivots without changing the pivot path, and that an abort stops
// the solve with IterLimit within one polling interval.
func TestAbortPolledEvery64Pivots(t *testing.T) {
	p := chainLP(300)
	plain := solveOK(t, p)
	pivots := plain.Phase1Pivots + plain.Phase2Pivots
	if pivots < 2*abortEvery {
		t.Fatalf("only %d pivots; the test needs several polling intervals", pivots)
	}

	polls := 0
	sol, err := p.SolveWith(&Scratch{Abort: func() bool { polls++; return false }})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Phase1Pivots != plain.Phase1Pivots || sol.Phase2Pivots != plain.Phase2Pivots ||
		math.Float64bits(sol.Objective) != math.Float64bits(plain.Objective) {
		t.Fatalf("polling changed the solve: %+v vs %+v", sol, plain)
	}
	for i := range sol.X {
		if math.Float64bits(sol.X[i]) != math.Float64bits(plain.X[i]) {
			t.Fatalf("polling changed x[%d]: %v vs %v", i, sol.X[i], plain.X[i])
		}
	}
	// One poll at the first pivot of each 64 in each phase's loop.
	if want := pivots / abortEvery; polls < want || polls > want+2 {
		t.Errorf("%d polls over %d pivots, want about %d", polls, pivots, want)
	}

	polls = 0
	sol, err = p.SolveWith(&Scratch{Abort: func() bool { polls++; return polls > 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit || sol.Phase1Pivots+sol.Phase2Pivots != abortEvery {
		t.Errorf("aborted solve: status %v after %d pivots, want %v after %d",
			sol.Status, sol.Phase1Pivots+sol.Phase2Pivots, IterLimit, abortEvery)
	}
}

// TestPhase1RayIsNumerical: the phase-1 objective is bounded below by
// zero, so a phase-1 ray is a numerical breakdown. A coefficient below
// the pivot tolerance makes one: the column prices in (reduced cost
// -5e-9) but the ratio test skips its only entry. The LP is feasible
// (x = 2e8), so the unchecked tableau's Infeasible is wrong; the solver
// reports Numerical.
func TestPhase1RayIsNumerical(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Term{{0, 5e-9}}, EQ, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Numerical || sol.X != nil {
		t.Errorf("%v with x=%v, want numerical and no point", sol.Status, sol.X)
	}
	sol, err = p.SolveWith(&Scratch{unchecked: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("unchecked: %v, want the phase-1 ray called infeasible", sol.Status)
	}
}
