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

// verdict is what againstOracle found: whether the breakdown guard
// stopped the solve, with both outcomes when it did, the solve's trace
// without its tableau, and whether the tableaus were compared at the end
// of phase 1.
type verdict struct {
	guarded bool
	outcome string
	trace   lp.Trace
	phase1  bool
}

// againstOracle solves p with kernel k and with the oracle (the dense
// kernel, breakdown guard off) and reports its verdict, or the first way
// the two disagree. The solve's pivots must be a prefix of the oracle's,
// and a solve whose phase 1 ends feasible must match the oracle's whole
// tableau there, artificial columns included. A guard stop must be on an
// LP the oracle does not solve to optimality. Otherwise the two must be
// the same solve: pivot sequence, status, effort counters, and the float
// bits of X and the objective.
func againstOracle(p *lp.Problem, k lp.Kernel) (verdict, error) {
	sol, tr, err := lp.SolveTraced(p, k)
	if err != nil {
		return verdict{}, err
	}
	v := verdict{trace: tr, phase1: tr.Phase1End != nil}
	v.trace.Phase1End = nil // a whole tableau; compared below, not kept
	ora, oTr, err := lp.SolveTraced(p, lp.Oracle)
	if err != nil {
		return v, err
	}
	trace, oTrace := tr.Pivots, oTr.Pivots
	if len(trace) > len(oTrace) {
		return v, fmt.Errorf("made %d pivots, oracle %d", len(trace), len(oTrace))
	}
	for k := range trace {
		if trace[k] != oTrace[k] {
			return v, fmt.Errorf("pivot %d: %+v, oracle %+v", k, trace[k], oTrace[k])
		}
	}
	if tr.Phase1End != nil {
		if err := sameTableau(tr.Phase1End, oTr.Phase1End, sol.Rows); err != nil {
			return v, fmt.Errorf("at the end of phase 1: %v", err)
		}
	}
	if sol.Phase1Pivots+sol.Phase2Pivots != len(trace) {
		return v, fmt.Errorf("counted %d+%d pivots, traced %d", sol.Phase1Pivots, sol.Phase2Pivots, len(trace))
	}
	outcome := fmt.Sprintf("%v after %d pivots, oracle %v after %d", sol.Status, len(trace), ora.Status, len(oTrace))
	if sol.Status == lp.Numerical {
		if ora.Status == lp.Optimal {
			return v, fmt.Errorf("guard stopped an LP the oracle solves: %s", outcome)
		}
		v.guarded, v.outcome = true, outcome
		return v, nil
	}
	if len(trace) != len(oTrace) {
		return v, fmt.Errorf("made %d pivots, oracle %d", len(trace), len(oTrace))
	}
	if sol.Status != ora.Status {
		return v, fmt.Errorf("status %v, oracle %v", sol.Status, ora.Status)
	}
	if sol.Phase1Pivots != ora.Phase1Pivots || sol.Phase2Pivots != ora.Phase2Pivots ||
		sol.Rows != ora.Rows || sol.Cols != ora.Cols {
		return v, fmt.Errorf("counters: %d+%d pivots %dx%d, oracle %d+%d pivots %dx%d",
			sol.Phase1Pivots, sol.Phase2Pivots, sol.Rows, sol.Cols,
			ora.Phase1Pivots, ora.Phase2Pivots, ora.Rows, ora.Cols)
	}
	if math.Float64bits(sol.Objective) != math.Float64bits(ora.Objective) {
		return v, fmt.Errorf("objective %v, oracle %v", sol.Objective, ora.Objective)
	}
	if len(sol.X) != len(ora.X) {
		return v, fmt.Errorf("len(X) %d, oracle %d", len(sol.X), len(ora.X))
	}
	for i := range sol.X {
		if math.Float64bits(sol.X[i]) != math.Float64bits(ora.X[i]) {
			return v, fmt.Errorf("x[%d] %v, oracle %v", i, sol.X[i], ora.X[i])
		}
	}
	return v, nil
}

// sameTableau reports the first entry where tableau a, m rows stored
// column-major and then the objective row, differs from the oracle's o.
// Entries must have the same float bits, except that a zero may differ
// in sign.
func sameTableau(a, o []float64, m int) error {
	if len(a) != len(o) {
		return fmt.Errorf("%d entries, oracle %d", len(a), len(o))
	}
	cols := len(a) / (m + 1) // the RHS included
	for i := range a {
		if math.Float64bits(a[i]) == math.Float64bits(o[i]) || a[i] == 0 && o[i] == 0 {
			continue
		}
		if i >= m*cols {
			return fmt.Errorf("obj[%d] %v, oracle %v", i-m*cols, a[i], o[i])
		}
		return fmt.Errorf("a[%d][%d] %v, oracle %v", i%m, i/m, a[i], o[i])
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

// TestSparseKernelMatchesDenseOracleRandom holds the solver to the dense
// oracle on random LPs, once with the column update package init chose
// and once with the Go loop, and checks the random suite reaches every
// outcome the partition LPs can (infeasible LPs among them, each with
// the oracle's verdict) and both mirror outcomes: a mirrored artificial
// entering, and a pair written out for good. A missing or misplaced
// write-out shows in the tableau compared at the end of phase 1.
func TestSparseKernelMatchesDenseOracleRandom(t *testing.T) {
	for _, k := range []struct {
		name   string
		kernel lp.Kernel
	}{{"dispatched", lp.Dispatched}, {"go", lp.GoLoop}} {
		t.Run(k.name, func(t *testing.T) { matchesOracleRandom(t, k.kernel) })
	}
}

func matchesOracleRandom(t *testing.T, kernel lp.Kernel) {
	r := rand.New(rand.NewSource(13))
	seen := map[lp.Status]int{}
	bothPhases, guarded, entered, writtenOut, phase1Ends := 0, 0, 0, 0, 0
	for k := 0; k < 2000; k++ {
		p := randomLP(r)
		v, err := againstOracle(p, kernel)
		if err != nil {
			t.Fatalf("LP %d: %v", k, err)
		}
		if v.guarded {
			guarded++
		}
		entered += v.trace.MirrorEntered
		writtenOut += v.trace.MirrorWrittenOut
		if v.phase1 {
			phase1Ends++
		}
		// Any status but Numerical is the oracle's verdict too.
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
			t.Errorf("no random LP ended %v with the oracle's verdict (outcomes %v)", st, seen)
		}
	}
	if bothPhases == 0 {
		t.Errorf("no random LP pivoted in both phases")
	}
	if entered == 0 || writtenOut == 0 {
		t.Errorf("mirrored artificials entered %d times and %d pairs were written out for good; want both",
			entered, writtenOut)
	}
	if phase1Ends == 0 {
		t.Errorf("no random LP compared its tableau at the end of phase 1")
	}
	t.Logf("outcomes %v, %d with pivots in both phases, %d guarded, %d mirrored entries, %d pairs written out, %d tableaus compared at the end of phase 1",
		seen, bothPhases, guarded, entered, writtenOut, phase1Ends)
}

// TestSparseKernelMatchesDenseOraclePartitionLPs captures every LP a
// serial cold plan solves (roots, branch-and-bound children, and the
// roots of candidates the sweep starts and then cancels)
// and holds each one to the dense oracle. The search is a function of
// its LP outcomes, and milp and the sweep treat Numerical like every
// other non-optimal, non-infeasible status, so this holds the plans to
// the oracle too. By default
// it covers two small sweeps; with MOBIUS_CHECK_LP set (make check-lp) it
// covers a default cold plan of every Table 3 model on Topo 2+2, 1+3 and
// 4+4. The default per-MILP time limit keeps that bounded; which LPs a
// limit-bound solve reaches depends on the machine, and every one of
// them is compared. A cold plan may capture no LP only when the root
// bound resolved its sweep; the roots of the candidates it resolved are
// then formulated directly (partition.Relaxation) and compared instead.
// Among them is the S = 24 root of 51B on Topo 4+4, the largest LP the
// sweep formulates and the one the simplex stops as numerical, which no
// cold plan solves since the bound.
func TestSparseKernelMatchesDenseOraclePartitionLPs(t *testing.T) {
	type shape struct {
		m         model.Config
		topo      string
		maxStages int
	}
	// At MaxStages 8 the root bound resolves 8B on Topo 2+2 with no LP,
	// so the roots of its candidates are compared; at MaxStages 12 it
	// leaves 3B there its S = 4, 8 and 12 candidates to their MILPs.
	shapes := []shape{{model.GPT8B, "2+2", 8}, {model.GPT3B, "2+2", 12}}
	if os.Getenv("MOBIUS_CHECK_LP") != "" {
		shapes = nil
		for _, m := range model.Table3() {
			for _, topo := range []string{"2+2", "1+3", "4+4"} {
				shapes = append(shapes, shape{m: m, topo: topo})
			}
		}
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%s_%s", sh.m.Name, sh.topo)
		t.Run(name, func(t *testing.T) {
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
			st := plan.MIPStats
			if st == nil || len(probs) < st.LPSolves {
				t.Fatalf("captured %d LPs, plan reports %+v", len(probs), st)
			}
			summary := fmt.Sprintf("%d counted, %d nodes", st.LPSolves, st.Nodes)
			var resolved []int
			for i, how := range st.Resolutions {
				if how == partition.RootBound {
					resolved = append(resolved, st.TriedStageCounts[i])
				}
			}
			if len(probs) == 0 {
				if resolved == nil {
					t.Fatalf("captured no LP, but the bound resolved none of %v", st.TriedStageCounts)
				}
				// The planning parameters of core.PlanMobius at the
				// default microbatch count. The sweep they drive must
				// resolve to the plan's step time, bit for bit, so a
				// field core derives and this copy misses fails here.
				params := partition.Params{
					Profile:   plan.Profile,
					NumGPUs:   topo.NumGPUs(),
					GPUMem:    topo.GPUMem(0) * core.UsableMemFraction,
					Bandwidth: core.PlanBandwidth(topo),
					Latency:   topo.TransferLatency,
				}
				_, again, err := partition.MIP(params, opts.MIP)
				if err != nil || math.Float64bits(again.StepTime) != math.Float64bits(st.StepTime) {
					t.Fatalf("the parameters rebuilt from the topology sweep to %+v, %v; the plan's step is %v", again, err, st.StepTime)
				}
				for _, S := range resolved {
					p, err := partition.Relaxation(params, S)
					if err != nil || p == nil {
						t.Fatalf("S = %d: %v, %v", S, p, err)
					}
					probs = append(probs, p)
				}
				summary += fmt.Sprintf(", roots of resolved %v", resolved)
			}
			// The oracle side dominates; compare on every CPU.
			errs := make([]error, len(probs))
			verdicts := make([]verdict, len(probs))
			next := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < runtime.GOMAXPROCS(0); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range next {
						verdicts[k], errs[k] = againstOracle(probs[k], lp.Dispatched)
					}
				}()
			}
			for k := range probs {
				next <- k
			}
			close(next)
			wg.Wait()
			guarded, entered, writtenOut := 0, 0, 0
			for k, err := range errs {
				if err != nil {
					t.Fatalf("LP %d of %d: %v", k, len(probs), err)
				}
				v := verdicts[k]
				entered += v.trace.MirrorEntered
				writtenOut += v.trace.MirrorWrittenOut
				if v.guarded {
					guarded++
					t.Logf("LP %d: %s", k, v.outcome)
				}
			}
			if name == "51B_4+4" && guarded == 0 {
				t.Error("the breakdown guard stopped none of the roots, S = 24 among them")
			}
			t.Logf("%d LPs (%s), %d guarded, %d mirrored entries, %d pairs written out",
				len(probs), summary, guarded, entered, writtenOut)
		})
	}
}
