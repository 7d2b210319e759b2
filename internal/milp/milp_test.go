package milp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mobius/internal/lp"
)

// knapsack is max 8a+11b+6c+4d s.t. 5a+7b+4c+3d <= 14 over binaries,
// as a minimisation.
func knapsack() *lp.Problem {
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
	return p
}

// fixedLP prices an integer point of p as Solve's pricer: it solves p's
// LP with each variable of ints fixed at its value there, within its
// bounds, and returns the optimum, or ok = false if that LP has none.
func fixedLP(p *lp.Problem, ints []int) func(x []float64) (float64, bool) {
	return func(x []float64) (float64, bool) {
		q := p.CloneInto(&lp.Problem{})
		for i, v := range ints {
			lo, hi := q.Bounds(v)
			q.SetBounds(v, max(lo, x[i]), min(hi, x[i]))
		}
		sol, err := q.Solve()
		if err != nil || sol.Status != lp.Optimal {
			return 0, false
		}
		return sol.Objective, true
	}
}

// solveFixed is Solve pricing integer points with fixedLP.
func solveFixed(p *lp.Problem, ints []int, opts Options) (*Result, error) {
	return Solve(p, ints, fixedLP(p, ints), opts)
}

func TestPureIntegerKnapsack(t *testing.T) {
	// The negated optimum: a=1,b=1,c=0,d=0 is 19 at weight 12;
	// a=0,b=1,c=1,d=1 is 21 at weight 14. Optimal 21.
	res, err := solveFixed(knapsack(), []int{0, 1, 2, 3}, Options{})
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
	res, err := solveFixed(p, []int{0, 1}, Options{})
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
	res, err := solveFixed(p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-2) > 1e-6 {
		t.Fatalf("objective %g, want 2 (x=%v)", res.Objective, res.X)
	}
	if len(res.X) != 1 || (res.X[0] != 1 && res.X[0] != 2) {
		t.Fatalf("x=%v, want the integer variable alone, n = 1 or 2", res.X)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := lp.NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	p.SetBounds(0, 0.4, 0.6)
	res, err := solveFixed(p, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

// coverThree is min x+y s.t. x+y >= 3.
func coverThree() *lp.Problem {
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.GE, 3)
	return p
}

func TestIncumbentSeedPrunes(t *testing.T) {
	p := coverThree()
	noSeed, err := solveFixed(p, []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := solveFixed(p, []int{0, 1}, Options{Incumbent: 3.0, IncumbentSet: true})
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

	seeded, err := solveFixed(build(), []int{0, 1}, Options{Incumbent: 0, IncumbentSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Status == lp.Optimal && seeded.Objective < -1e-9 {
		t.Fatalf("found objective %g below the seeded bound 0", seeded.Objective)
	}
	if seeded.Status == lp.Optimal && seeded.Objective > 1e-9 {
		t.Fatalf("seeded solve returned objective %g worse than the incumbent", seeded.Objective)
	}

	// The zero value of Options still means "no incumbent": the solve must
	// find the optimum normally.
	unset, err := solveFixed(build(), []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unset.Status != lp.Optimal || math.Abs(unset.Objective) > 1e-9 {
		t.Fatalf("unset incumbent: status=%v obj=%g want optimal 0", unset.Status, unset.Objective)
	}
}

// randomKnapsack is a knapsack over n binaries with values in [1, 10)
// and weights in [1, 1+spread) drawn from seed, and capacity cap. It
// returns the problem and its integer variables, all of them.
func randomKnapsack(seed int64, n int, spread, cap float64) (*lp.Problem, []int) {
	r := rand.New(rand.NewSource(seed))
	p := lp.NewProblem(n)
	var terms []lp.Term
	ints := make([]int, n)
	for i := 0; i < n; i++ {
		p.SetObjectiveCoeff(i, -(1 + r.Float64()*spread))
		p.SetBounds(i, 0, 1)
		terms = append(terms, lp.Term{Var: i, Coeff: 1 + r.Float64()*spread})
		ints[i] = i
	}
	p.AddConstraint(terms, lp.LE, cap)
	return p, ints
}

func TestNodeLimitReturnsIncumbent(t *testing.T) {
	// A knapsack-ish problem with enough integer vars to need nodes; with
	// MaxNodes 1 the rounding heuristic should still deliver something.
	p, ints := randomKnapsack(7, 12, 9, 20)
	res, err := solveFixed(p, ints, Options{MaxNodes: 1})
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

// randomMILP draws a small integer program from seed: 2..4 integer
// variables in [0, ub] with quarter-step costs, and 1..3 LE rows with
// non-negative quarter-step coefficients, which keep it bounded and
// feasible (x = 0 always works). It returns the problem with its costs
// and rows for enumeration.
func randomMILP(seed int64) (p *lp.Problem, ub float64, costs []float64, rows []randomRow) {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(3)
	ub = 3.0
	p = lp.NewProblem(n)
	costs = make([]float64, n)
	for i := range costs {
		costs[i] = math.Round((r.Float64()*4-2)*4) / 4
		p.SetObjectiveCoeff(i, costs[i])
		p.SetBounds(i, 0, ub)
	}
	m := 1 + r.Intn(3)
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
		rows = append(rows, randomRow{coeff, rhs})
		if len(terms) > 0 {
			p.AddConstraint(terms, lp.LE, rhs)
		}
	}
	return p, ub, costs, rows
}

// randomRow is one LE row of a randomMILP instance.
type randomRow struct {
	coeff []float64
	rhs   float64
}

// allInts lists the variables of p: every one is integer.
func allInts(p *lp.Problem) []int {
	ints := make([]int, p.NumVars())
	for i := range ints {
		ints[i] = i
	}
	return ints
}

// TestRandomMILPAgainstBruteForce cross-checks branch and bound against
// exhaustive enumeration on small random integer programs.
func TestRandomMILPAgainstBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		p, ub, costs, rows := randomMILP(seed)
		n := len(costs)
		res, err := solveFixed(p, allInts(p), Options{})
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
	res, err := solveFixed(p, []int{0}, Options{})
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
	res, err := solveFixed(p, []int{0, 1}, Options{Incumbent: 10.4, IncumbentSet: true, GapTol: 0.05})
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
	p, ints := randomKnapsack(3, 16, 1, 8)
	start := time.Now()
	res, err := solveFixed(p, ints, Options{TimeLimit: time.Nanosecond})
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
		res, err := solveFixed(p, []int{0, 1}, Options{Cancel: func() bool { return true }})
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

// TestAbortedChildLPIsNotProven aborts exactly one child LP — the first
// LP poll after the search starts branching — and lets everything else
// run. The search still finds the optimum, but the aborted child's
// subtree was never bounded, so the result must not claim a proof.
// The problem is max x+y s.t. x+y <= 1.5 over binaries, whose root
// (1, 0.5) branches on y. The two children of the first node poll
// concurrently, so the aborted child is whichever side polls first:
// aborting y <= 0 leaves the optimum to the y >= 1 subtree, and aborting
// y >= 1 leaves it to y <= 0 itself, so either way the search ends at -1
// unproven.
func TestAbortedChildLPIsNotProven(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjectiveCoeff(0, -1)
	p.SetObjectiveCoeff(1, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, lp.LE, 1.5)

	// The node loop polls Cancel from Solve itself; the LP polls it from
	// inside package lp, on either goroutine. Tell them apart by the
	// caller, and let exactly one LP poll after branching win the abort.
	var branching atomic.Bool
	var aborted atomic.Int32
	cancel := func() bool {
		pc, _, _, _ := runtime.Caller(1)
		if strings.HasSuffix(runtime.FuncForPC(pc).Name(), "milp.Solve") {
			branching.Store(true)
			return false
		}
		return branching.Load() && aborted.CompareAndSwap(0, 1)
	}
	res, err := solveFixed(p, []int{0, 1}, Options{Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	if n := aborted.Load(); n != 1 {
		t.Fatalf("aborted %d child LPs, want exactly 1", n)
	}
	if res.Status != lp.Optimal || res.Objective != -1 {
		t.Fatalf("status %v objective %g, want optimum -1", res.Status, res.Objective)
	}
	if res.Proven {
		t.Error("a search that dropped an aborted child LP claims Proven")
	}
}

// TestSiblingLPsMatchSerial holds the concurrent sibling split to the
// one-core order bit for bit: status, solution and objective float bits,
// nodes, proof and every effort counter, over random instances and the
// knapsack, incumbent and node-limit problems above, some under node
// limits, an incumbent and a gap so that the search stops or prunes.
func TestSiblingLPsMatchSerial(t *testing.T) {
	type instance struct {
		name string
		p    *lp.Problem
		ints []int
		opts Options
	}
	var cases []instance
	for seed := int64(0); seed < 300; seed++ {
		p, _, _, _ := randomMILP(seed)
		opts := Options{}
		switch seed % 3 {
		case 1:
			opts.MaxNodes = 1 + int(seed%5)
		case 2:
			opts.Incumbent, opts.IncumbentSet, opts.GapTol = -1, true, 0.05
		}
		cases = append(cases, instance{fmt.Sprintf("random%d", seed), p, allInts(p), opts})
	}
	nodeLimit, nodeLimitInts := randomKnapsack(7, 12, 9, 20)
	hard, hardInts := randomKnapsack(3, 16, 1, 8)
	cases = append(cases,
		instance{"knapsack", knapsack(), []int{0, 1, 2, 3}, Options{}},
		instance{"cover", coverThree(), []int{0, 1}, Options{}},
		instance{"coverSeeded", coverThree(), []int{0, 1}, Options{Incumbent: 3, IncumbentSet: true}},
		instance{"nodeLimit1", nodeLimit, nodeLimitInts, Options{MaxNodes: 1}},
		instance{"nodeLimitOpen", nodeLimit, nodeLimitInts, Options{}},
		instance{"timeLimitKnapsack", hard, hardInts, Options{}},
	)
	sc := NewScratch()
	branched := 0
	for _, c := range cases {
		for _, pooled := range []bool{false, true} {
			opts := c.opts
			if pooled {
				opts.Scratch = sc
			}
			want, err := solveSerial(c.p, c.ints, opts)
			if err != nil {
				t.Fatalf("%s: serial: %v", c.name, err)
			}
			got, err := solveFixed(c.p, c.ints, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if diff := resultDiff(got, want); diff != "" {
				t.Errorf("%s (pooled %v): concurrent vs serial: %s", c.name, pooled, diff)
			}
			if want.Nodes > 0 {
				branched++
			}
		}
	}
	// About half the random instances are integral at the root or pruned
	// there; the rest, and every named problem, branch.
	if branched < len(cases)/2 {
		t.Errorf("only %d of %d solves branched", branched, 2*len(cases))
	}
}

// resultDiff describes the first difference between two results, float
// bits included, or returns "".
func resultDiff(a, b *Result) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case !same(a.Objective, b.Objective):
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	case len(a.X) != len(b.X):
		return fmt.Sprintf("x %v vs %v", a.X, b.X)
	case a.Nodes != b.Nodes || a.Proven != b.Proven:
		return fmt.Sprintf("nodes %d proven %v vs nodes %d proven %v", a.Nodes, a.Proven, b.Nodes, b.Proven)
	case a.LPSolves != b.LPSolves || a.LPPivots != b.LPPivots || a.LPNumerical != b.LPNumerical ||
		a.LPRows != b.LPRows || a.LPCols != b.LPCols:
		return fmt.Sprintf("effort %d LPs %d pivots %d numerical %dx%d vs %d LPs %d pivots %d numerical %dx%d",
			a.LPSolves, a.LPPivots, a.LPNumerical, a.LPRows, a.LPCols,
			b.LPSolves, b.LPPivots, b.LPNumerical, b.LPRows, b.LPCols)
	}
	for i := range a.X {
		if !same(a.X[i], b.X[i]) {
			return fmt.Sprintf("x[%d] %v vs %v", i, a.X[i], b.X[i])
		}
	}
	return ""
}

// TestSolvedRootMatchesInline holds a search handed its root by
// Options.Root, solved ahead in either workspace by Scratch.SolveRoot,
// to the search that solves its own root, bit for bit, over the
// instances of TestSiblingLPsMatchSerial's random set and the named
// problems.
func TestSolvedRootMatchesInline(t *testing.T) {
	type instance struct {
		name string
		p    *lp.Problem
		ints []int
		opts Options
	}
	var cases []instance
	for seed := int64(0); seed < 100; seed++ {
		p, _, _, _ := randomMILP(seed)
		opts := Options{}
		if seed%2 == 1 {
			opts.MaxNodes = 1 + int(seed%5)
		}
		cases = append(cases, instance{fmt.Sprintf("random%d", seed), p, allInts(p), opts})
	}
	infeasible := lp.NewProblem(1)
	infeasible.SetBounds(0, 0, 1)
	infeasible.AddConstraint([]lp.Term{{Var: 0, Coeff: 1}}, lp.GE, 2)
	cases = append(cases,
		instance{"knapsack", knapsack(), []int{0, 1, 2, 3}, Options{}},
		instance{"coverSeeded", coverThree(), []int{0, 1}, Options{Incumbent: 3, IncumbentSet: true}},
		instance{"infeasible", infeasible, []int{0}, Options{}},
	)
	sc := NewScratch()
	for _, c := range cases {
		want, err := solveFixed(c.p, c.ints, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for w := 0; w < 2; w++ {
			root, err := sc.SolveRoot(c.p, w, nil)
			if err != nil {
				t.Fatalf("%s: root: %v", c.name, err)
			}
			opts := c.opts
			opts.Root, opts.Scratch = root, sc
			got, err := solveFixed(c.p, c.ints, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if diff := resultDiff(got, want); diff != "" {
				t.Errorf("%s (root in workspace %d): solved root vs inline: %s", c.name, w, diff)
			}
		}
	}
}

// TestSolvedRootUsedWholeLimit hands a search a root whose solve used
// more than the whole time limit, as a negative TimeLimit: the search
// must explore no node rather than take the 10 s default, and still
// price the rounding of the root.
func TestSolvedRootUsedWholeLimit(t *testing.T) {
	p, ints := randomKnapsack(3, 16, 1, 8)
	root, err := NewScratch().SolveRoot(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	priced, fixed := 0, fixedLP(p, ints)
	price := func(x []float64) (float64, bool) {
		priced++
		return fixed(x)
	}
	res, err := Solve(p, ints, price, Options{Root: root, TimeLimit: -time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 0 || res.Proven || res.LPSolves != 1 || priced != 1 {
		t.Errorf("%d nodes, %d LPs, %d points priced, proven %v; want the root and the pricing of its rounding only, unproven",
			res.Nodes, res.LPSolves, priced, res.Proven)
	}
}
