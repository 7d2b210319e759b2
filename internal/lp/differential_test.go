package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/lp"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// sameSolve solves p with the sparse kernel and with the dense oracle and
// reports the first difference: pivot sequence, status, effort counters,
// or the float bits of X and the objective.
func sameSolve(p *lp.Problem) error {
	sparse, sTrace, err := lp.SolveTraced(p, false)
	if err != nil {
		return err
	}
	dense, dTrace, err := lp.SolveTraced(p, true)
	if err != nil {
		return err
	}
	for k := 0; k < len(sTrace) && k < len(dTrace); k++ {
		if sTrace[k] != dTrace[k] {
			return fmt.Errorf("pivot %d: sparse %+v, dense %+v", k, sTrace[k], dTrace[k])
		}
	}
	if len(sTrace) != len(dTrace) {
		return fmt.Errorf("sparse made %d pivots, dense %d", len(sTrace), len(dTrace))
	}
	if sparse.Status != dense.Status {
		return fmt.Errorf("status: sparse %v, dense %v", sparse.Status, dense.Status)
	}
	if sparse.Phase1Pivots != dense.Phase1Pivots || sparse.Phase2Pivots != dense.Phase2Pivots ||
		sparse.Rows != dense.Rows || sparse.Cols != dense.Cols {
		return fmt.Errorf("counters: sparse %d+%d pivots %dx%d, dense %d+%d pivots %dx%d",
			sparse.Phase1Pivots, sparse.Phase2Pivots, sparse.Rows, sparse.Cols,
			dense.Phase1Pivots, dense.Phase2Pivots, dense.Rows, dense.Cols)
	}
	if sparse.Phase1Pivots+sparse.Phase2Pivots != len(sTrace) {
		return fmt.Errorf("counted %d+%d pivots, traced %d", sparse.Phase1Pivots, sparse.Phase2Pivots, len(sTrace))
	}
	if math.Float64bits(sparse.Objective) != math.Float64bits(dense.Objective) {
		return fmt.Errorf("objective: sparse %v, dense %v", sparse.Objective, dense.Objective)
	}
	if len(sparse.X) != len(dense.X) {
		return fmt.Errorf("len(X): sparse %d, dense %d", len(sparse.X), len(dense.X))
	}
	for i := range sparse.X {
		if math.Float64bits(sparse.X[i]) != math.Float64bits(dense.X[i]) {
			return fmt.Errorf("x[%d]: sparse %v, dense %v", i, sparse.X[i], dense.X[i])
		}
	}
	return nil
}

// randomLP builds a small LP mixing every row relation, negative
// right-hand sides, lower and upper bounds, duplicate terms and
// zero-cost columns. Most rows hold at a random point within the bounds,
// some tightly, so the suite reaches redundant equalities, degenerate
// vertices and the phase-1 drive-out; the rest are arbitrary, for
// infeasible and unbounded outcomes.
func randomLP(r *rand.Rand) *lp.Problem {
	quarter := func(lo, hi float64) float64 { return math.Round((lo+r.Float64()*(hi-lo))*4) / 4 }
	n := 2 + r.Intn(8)
	p := lp.NewProblem(n)
	x0 := make([]float64, n)
	for i := 0; i < n; i++ {
		if r.Intn(4) > 0 {
			p.SetObjectiveCoeff(i, quarter(-1, 3))
		}
		lo, hi := 0.0, math.Inf(1)
		switch r.Intn(4) {
		case 0:
			lo = quarter(0, 3)
		case 1:
			lo = quarter(0, 2)
			hi = lo + quarter(0, 6)
		}
		p.SetBounds(i, lo, hi)
		x0[i] = lo + quarter(0, 4)
		if x0[i] > hi {
			x0[i] = hi
		}
	}
	feasible := r.Intn(4) > 0
	m := 1 + r.Intn(10)
	for k := 0; k < m; k++ {
		var terms []lp.Term
		lhs := 0.0
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				c := quarter(-3, 3)
				terms = append(terms, lp.Term{Var: i, Coeff: c})
				lhs += c * x0[i]
			}
		}
		if len(terms) == 0 {
			v := r.Intn(n)
			terms = append(terms, lp.Term{Var: v, Coeff: 1})
			lhs += x0[v]
		}
		if r.Intn(5) == 0 {
			terms = append(terms, terms[0]) // duplicates are summed
			lhs += terms[0].Coeff * x0[terms[0].Var]
		}
		rel := lp.Rel(r.Intn(3))
		rhs := quarter(-3, 7)
		if feasible {
			slack := quarter(0, 2)
			if r.Intn(3) == 0 {
				slack = 0 // tight at x0: degenerate vertices
			}
			switch rel {
			case lp.LE:
				rhs = lhs + slack
			case lp.GE:
				rhs = lhs - slack
			case lp.EQ:
				rhs = lhs
			}
		}
		p.AddConstraint(terms, rel, rhs)
	}
	return p
}

// TestSparseKernelMatchesDenseOracleRandom holds the sparse kernel to the
// dense oracle on random LPs, and checks the random suite reaches every
// outcome the partition LPs can.
func TestSparseKernelMatchesDenseOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	seen := map[lp.Status]int{}
	bothPhases := 0
	for k := 0; k < 2000; k++ {
		p := randomLP(r)
		if err := sameSolve(p); err != nil {
			t.Fatalf("LP %d: %v", k, err)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		seen[sol.Status]++
		if sol.Phase1Pivots > 0 && sol.Phase2Pivots > 0 {
			bothPhases++
		}
	}
	for _, st := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded} {
		if seen[st] == 0 {
			t.Errorf("no random LP ended %v (outcomes %v)", st, seen)
		}
	}
	if bothPhases == 0 {
		t.Errorf("no random LP pivoted in both phases")
	}
	t.Logf("outcomes %v, %d with pivots in both phases", seen, bothPhases)
}

// TestSparseKernelMatchesDenseOraclePartitionLPs captures every LP a
// serial cold plan solves (roots, branch-and-bound children, rounding
// LPs, and the roots of candidates the sweep starts and then cancels)
// and holds each one to the dense oracle. The search is a function of
// its LP outcomes, so this holds the plans to the oracle too. By default
// it covers one small sweep; with MOBIUS_CHECK_LP set (make check-lp) it
// covers a default cold plan of every Table 3 model on Topo 2+2, 1+3 and
// 4+4. The default per-MILP time limit keeps that bounded; which LPs a
// limit-bound solve reaches depends on the machine, and every one of them
// is compared.
func TestSparseKernelMatchesDenseOraclePartitionLPs(t *testing.T) {
	type shape struct {
		m         model.Config
		topo      string
		maxStages int
	}
	shapes := []shape{{model.GPT8B, "2+2", 8}}
	if os.Getenv("MOBIUS_CHECK_LP") != "" {
		shapes = nil
		for _, m := range model.Table3() {
			for _, topo := range []string{"2+2", "1+3", "4+4"} {
				shapes = append(shapes, shape{m: m, topo: topo})
			}
		}
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%s_%s", sh.m.Name, sh.topo), func(t *testing.T) {
			topo, err := hw.ParseSpec(sh.topo)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{
				Model:       sh.m,
				Topology:    topo,
				Parallelism: 1,
				MIP:         partition.MIPOptions{DisableCache: true, MaxStages: sh.maxStages},
			}
			var plan *core.Plan
			probs := lp.CaptureSolves(func() { plan, err = core.PlanMobius(opts) })
			if err != nil {
				t.Fatal(err)
			}
			if plan.MIPStats == nil || len(probs) < plan.MIPStats.LPSolves {
				t.Fatalf("captured %d LPs, plan reports %+v", len(probs), plan.MIPStats)
			}
			// The dense side dominates; compare on every CPU.
			errs := make([]error, len(probs))
			next := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < runtime.GOMAXPROCS(0); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range next {
						errs[k] = sameSolve(probs[k])
					}
				}()
			}
			for k := range probs {
				next <- k
			}
			close(next)
			wg.Wait()
			for k, err := range errs {
				if err != nil {
					t.Fatalf("LP %d of %d: %v", k, len(probs), err)
				}
			}
			t.Logf("%d LPs (%d counted), %d nodes", len(probs), plan.MIPStats.LPSolves, plan.MIPStats.Nodes)
		})
	}
}
