package milp

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mobius/internal/lp"
)

func TestPureIntegerKnapsack(t *testing.T) {
	// max 8a+11b+6c+4d s.t. 5a+7b+4c+3d <= 14, vars in {0,1}
	// -> min negative; optimum a=b=c=0? Classic answer: a=1,b=1,c=0,d=0 is
	// 19 weight 12; a=0,b=1,c=1,d=1 = 21 weight 14. Optimal 21.
	p := lp.NewProblem(4)
	costs := []float64{-8, -11, -6, -4}
	weights := []float64{5, 7, 4, 3}
	var terms []lp.Term
	for i := range weights {
		p.SetObjectiveCoeff(i, costs[i])
		p.SetBounds(i, 0, 1)
		terms = append(terms, lp.Term{Var: i, Coeff: weights[i]})
	}
	p.AddConstraint(terms, lp.LE, 14)
	res, err := Solve(p, []int{0, 1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal || !res.Proven {
		t.Fatalf("status=%v proven=%v", res.Status, res.Proven)
	}
	if math.Abs(res.Objective-(-21)) > 1e-6 {
		t.Fatalf("objective %g, want -21 (x=%v)", res.Objective, res.X)
	}
}

func TestIntegerRoundingMatters(t *testing.T) {
	// max x+y s.t. 2x+2y <= 5, ints -> LP gives 2.5, MILP must give 2.
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, -1)
	p.SetObjectiveCoeff(1, -1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 2}}, lp.LE, 5)
	res, err := Solve(p, []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-(-2)) > 1e-6 {
		t.Fatalf("objective %g, want -2", res.Objective)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y >= 1.5n - 1, y >= 4 - 2n, n integer >= 0.
	// n=1 -> y >= max(0.5, 2) = 2; n=2 -> y >= max(2, 0) = 2;
	// continuous n* = 10/7 -> y ~ 1.857; integer optimum 2.
	p := lp.NewProblem(2) // 0: n, 1: y
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]lp.Term{{Var: 1, Coeff: 1}, {Var: 0, Coeff: -1.5}}, lp.GE, -1)
	p.AddConstraint([]lp.Term{{Var: 1, Coeff: 1}, {Var: 0, Coeff: 2}}, lp.GE, 4)
	res, err := Solve(p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-2) > 1e-6 {
		t.Fatalf("objective %g, want 2 (x=%v)", res.Objective, res.X)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := lp.NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.SetBounds(0, 0.4, 0.6)
	res, err := Solve(p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestIncumbentSeedPrunes(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.GE, 3)
	noSeed, err := Solve(p, []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := Solve(p, []int{0, 1}, Options{Incumbent: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(noSeed.Objective-3) > 1e-6 {
		t.Fatalf("unseeded objective %g", noSeed.Objective)
	}
	// A seed equal to the optimum still yields a correct (possibly equal)
	// objective; it must never worsen the result.
	if seeded.Status == lp.Optimal && seeded.Objective > noSeed.Objective+1e-6 {
		t.Fatalf("seeded objective %g worse than %g", seeded.Objective, noSeed.Objective)
	}
}

func TestZeroIncumbentIsHonored(t *testing.T) {
	// min x+y s.t. x+y >= 0, integer. The optimum is 0, and an incumbent
	// of exactly 0 is a legitimate known bound: the search must prune
	// everything (nothing beats 0) instead of discarding the seed as
	// "unset" and re-discovering the optimum.
	build := func() *lp.Problem {
		p := lp.NewProblem(2)
		p.SetObjectiveCoeff(0, 1)
		p.SetObjectiveCoeff(1, 1)
		p.SetBounds(0, 0, 4)
		p.SetBounds(1, 0, 4)
		p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.GE, 0)
		return p
	}

	seeded, err := Solve(build(), []int{0, 1}, Options{Incumbent: 0, IncumbentSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status == lp.Optimal && seeded.Objective < -1e-9 {
		t.Fatalf("found objective %g below the seeded bound 0", seeded.Objective)
	}
	if seeded.Status == lp.Optimal && seeded.Objective > 1e-9 {
		t.Fatalf("seeded solve returned objective %g worse than the incumbent", seeded.Objective)
	}

	// NaN spells "unset" explicitly.
	nan, err := Solve(build(), []int{0, 1}, Options{Incumbent: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if nan.Status != lp.Optimal || math.Abs(nan.Objective) > 1e-9 {
		t.Fatalf("NaN incumbent must behave as unset: status=%v obj=%g", nan.Status, nan.Objective)
	}

	// The zero value of Options still means "no incumbent": the solve must
	// find the optimum normally.
	unset, err := Solve(build(), []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unset.Status != lp.Optimal || math.Abs(unset.Objective) > 1e-9 {
		t.Fatalf("unset incumbent: status=%v obj=%g want optimal 0", unset.Status, unset.Objective)
	}
}

func TestNodeLimitReturnsIncumbent(t *testing.T) {
	// A knapsack-ish problem with enough integer vars to need nodes; with
	// MaxNodes 1 the rounding heuristic should still deliver something.
	r := rand.New(rand.NewSource(7))
	const n = 12
	p := lp.NewProblem(n)
	var terms []lp.Term
	for i := 0; i < n; i++ {
		p.SetObjectiveCoeff(i, -(1 + r.Float64()*9))
		p.SetBounds(i, 0, 1)
		terms = append(terms, lp.Term{Var: i, Coeff: 1 + r.Float64()*9})
	}
	p.AddConstraint(terms, lp.LE, 20)
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	res, err := Solve(p, ints, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == lp.Optimal && res.Proven {
		t.Log("solved at root; acceptable")
	}
	if res.Status != lp.Optimal {
		t.Fatalf("expected an incumbent from rounding, got %v", res.Status)
	}
}

// TestRandomMILPAgainstBruteForce cross-checks branch and bound against
// exhaustive enumeration on small random integer programs.
func TestRandomMILPAgainstBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3) // 2..4 integer vars in [0,3]
		ub := 3.0
		p := lp.NewProblem(n)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = math.Round((r.Float64()*4-2)*4) / 4
			p.SetObjectiveCoeff(i, costs[i])
			p.SetBounds(i, 0, ub)
		}
		// A couple of random LE constraints with non-negative coeffs keep
		// the problem bounded and feasible (x=0 always works).
		m := 1 + r.Intn(3)
		type row struct {
			coeff []float64
			rhs   float64
		}
		var rows []row
		for k := 0; k < m; k++ {
			var terms []lp.Term
			coeff := make([]float64, n)
			for i := 0; i < n; i++ {
				c := math.Round(r.Float64()*3*4) / 4
				coeff[i] = c
				if c != 0 {
					terms = append(terms, lp.Term{Var: i, Coeff: c})
				}
			}
			rhs := math.Round(r.Float64()*10*4) / 4
			rows = append(rows, row{coeff, rhs})
			if len(terms) > 0 {
				p.AddConstraint(terms, lp.LE, rhs)
			}
		}
		ints := make([]int, n)
		for i := range ints {
			ints[i] = i
		}
		res, err := Solve(p, ints, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Status != lp.Optimal {
			t.Logf("seed %d: status %v (x=0 is feasible!)", seed, res.Status)
			return false
		}
		// Brute force.
		best := math.Inf(1)
		var rec func(i int, x []float64)
		rec = func(i int, x []float64) {
			if i == n {
				for _, rw := range rows {
					lhs := 0.0
					for j := range x {
						lhs += rw.coeff[j] * x[j]
					}
					if lhs > rw.rhs+1e-9 {
						return
					}
				}
				obj := 0.0
				for j := range x {
					obj += costs[j] * x[j]
				}
				if obj < best {
					best = obj
				}
				return
			}
			for v := 0.0; v <= ub; v++ {
				x[i] = v
				rec(i+1, x)
			}
		}
		rec(0, make([]float64, n))
		if math.Abs(res.Objective-best) > 1e-5 {
			t.Logf("seed %d: milp %g vs brute force %g (x=%v)", seed, res.Objective, best, res.X)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegerSolutionRespectsTolerance(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}}, lp.GE, 2.3)
	res, err := Solve(p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-6 {
		t.Fatalf("x=%v, want 3", res.X)
	}
}

func TestGapToleranceAcceptsNearOptimal(t *testing.T) {
	// With a generous gap, the solver may stop at the seeded incumbent.
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.GE, 10)
	res, err := Solve(p, []int{0, 1}, Options{Incumbent: 10.4, GapTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Objective > 10.4+1e-9 {
		t.Fatalf("objective %g above the seed", res.Objective)
	}
}

func TestTimeLimitHonored(t *testing.T) {
	// A hard knapsack with a 1ns budget must still return something
	// sensible (rounding incumbent or IterLimit) and quickly.
	r := rand.New(rand.NewSource(3))
	const n = 16
	p := lp.NewProblem(n)
	var terms []lp.Term
	for i := 0; i < n; i++ {
		p.SetObjectiveCoeff(i, -(1 + r.Float64()))
		p.SetBounds(i, 0, 1)
		terms = append(terms, lp.Term{Var: i, Coeff: 1 + r.Float64()})
	}
	p.AddConstraint(terms, lp.LE, 8)
	ints := make([]int, n)
	for i := range ints {
		ints[i] = i
	}
	start := time.Now()
	res, err := Solve(p, ints, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("time limit ignored")
	}
	if res.Status == lp.Optimal && res.Proven {
		t.Log("solved at root before the deadline check; acceptable")
	}
}

// TestNonOptimalRootReturnsIterLimit stops the root LP before it is
// optimal, in phase 1 (no point at all) and in phase 2 (a feasible,
// non-optimal point): neither may be rounded or branched on, and the
// solve reports IterLimit with no incumbent instead of panicking.
func TestNonOptimalRootReturnsIterLimit(t *testing.T) {
	phase1 := lp.NewProblem(2) // GE rows need artificials
	phase1.SetObjectiveCoeff(0, 1)
	phase1.SetObjectiveCoeff(1, 1)
	phase1.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 1}}, lp.GE, 3.5)
	phase2 := lp.NewProblem(2) // LE rows start feasible
	phase2.SetObjectiveCoeff(0, -1)
	phase2.SetObjectiveCoeff(1, -1)
	phase2.AddConstraint([]lp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 2}}, lp.LE, 5)
	for name, p := range map[string]*lp.Problem{"phase1": phase1, "phase2": phase2} {
		res, err := Solve(p, []int{0, 1}, Options{Cancel: func() bool { return true }})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != lp.IterLimit || res.X != nil || res.Proven || res.Nodes != 0 {
			t.Errorf("%s: got status %v, x %v, proven %v, %d nodes; want iteration-limit, no incumbent",
				name, res.Status, res.X, res.Proven, res.Nodes)
		}
		if res.LPSolves != 1 {
			t.Errorf("%s: %d LP solves, want the root only", name, res.LPSolves)
		}
	}
}

// TestRepeatedRoundingSkipsLP pins the rounding memo on a search whose
// up-branch child rounds to the vector the root already rounded to:
// max x+y s.t. x+y <= 1.5 over binaries. The root (1, 0.5) rounds to
// (1, 1), which is infeasible; the child y >= 1 at (0.5, 1) rounds to
// (1, 1) again, and that LP is not solved a second time.
func TestRepeatedRoundingSkipsLP(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, -1)
	p.SetObjectiveCoeff(1, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.LE, 1.5)
	res, err := Solve(p, []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal || !res.Proven || res.Objective != -1 {
		t.Fatalf("status %v proven %v objective %g, want proven optimum -1", res.Status, res.Proven, res.Objective)
	}
	// Root, its rounding, 2 nodes x 2 children, and one rounding of the
	// down child (1, 0): 7. Solving the repeated (1, 1) would make 8.
	if res.Nodes != 2 || res.LPSolves != 7 {
		t.Errorf("%d nodes, %d LP solves; want 2 nodes, 7 LP solves", res.Nodes, res.LPSolves)
	}
	// The largest tableau is the infeasible rounding LP: a row and two
	// upper-bound rows, by 2 structural, 3 slack and 1 artificial columns
	// (fixing both at 1 flips the row's sign, making it a >= row).
	if res.LPPivots <= 0 || res.LPRows != 3 || res.LPCols != 6 {
		t.Errorf("effort %d pivots, largest LP %dx%d; want pivots and a 3x6 tableau", res.LPPivots, res.LPRows, res.LPCols)
	}
}

// TestAbortedChildLPIsNotProven aborts exactly one child LP — the first
// LP poll after the search starts branching — and lets everything else
// run. The search still finds the optimum, but the aborted child's
// subtree was never bounded, so the result must not claim a proof.
// Same problem as TestRepeatedRoundingSkipsLP: the aborted child is the
// y <= 0 side of the first node.
func TestAbortedChildLPIsNotProven(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, -1)
	p.SetObjectiveCoeff(1, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.LE, 1.5)

	// The node loop polls Cancel from Solve itself; the LP polls it from
	// inside package lp. Tell them apart by the caller.
	branching, aborted := false, 0
	cancel := func() bool {
		pc, _, _, _ := runtime.Caller(1)
		fromSolve := strings.HasSuffix(runtime.FuncForPC(pc).Name(), "milp.Solve")
		switch {
		case fromSolve:
			branching = true
		case branching && aborted == 0:
			aborted++
			return true
		}
		return false
	}
	res, err := Solve(p, []int{0, 1}, Options{Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	if aborted != 1 {
		t.Fatalf("aborted %d child LPs, want exactly 1", aborted)
	}
	if res.Status != lp.Optimal || res.Objective != -1 {
		t.Fatalf("status %v objective %g, want optimum -1", res.Status, res.Objective)
	}
	if res.Proven {
		t.Error("a search that dropped an aborted child LP claims Proven")
	}
}
