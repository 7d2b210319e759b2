// Package milp solves mixed-integer linear programs by best-first branch
// and bound over the internal/lp simplex solver. Together they stand in
// for the Gurobi Optimizer used by the paper to solve the MIP partition
// problem (§3.2): instances there are small after layer-similarity
// compression, so a straightforward exact search suffices.
package milp

import (
	"container/heap"
	"encoding/binary"
	"math"
	"time"

	"mobius/internal/lp"
)

// intTol is the integrality tolerance: an integer variable within intTol
// of an integer counts as integral.
const intTol = 1e-6

// Options bound the search effort.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes (default 5000).
	MaxNodes int
	// TimeLimit caps wall-clock solve time (default 10s).
	TimeLimit time.Duration
	// Incumbent seeds the upper bound with a known feasible objective so
	// the search can prune immediately. The zero value of Options means
	// "no incumbent"; to seed a legitimate zero-valued bound, set
	// IncumbentSet (an unset incumbent can also be spelled NaN).
	Incumbent float64
	// IncumbentSet marks Incumbent as meaningful even when it is zero.
	// Any nonzero finite Incumbent is treated as set for compatibility.
	IncumbentSet bool
	// GapTol is the relative optimality gap: nodes whose LP bound is
	// within GapTol of the incumbent are pruned. Zero means exact.
	GapTol float64
	// Cancel, when non-nil, is polled between branch-and-bound nodes and
	// every 64 simplex pivots inside each LP; returning true abandons the
	// search early (the result is then best-effort, as if a node or time
	// limit had been hit). It lets a caller running several solves
	// concurrently stop work whose outcome it already knows it will
	// discard.
	Cancel func() bool
	// Scratch, when non-nil, supplies pooled working memory for the
	// per-node LP clone and simplex tableau. One scratch serves one
	// worker goroutine across any number of Solve calls; concurrent
	// sharing is not safe.
	Scratch *Scratch
}

// Scratch pools the branch-and-bound working memory: the LP problem
// clone mutated per node and the simplex solver's tableau. Reuse across
// sequential Solve calls is safe and removes the dominant allocations of
// the search; concurrent sharing is not safe.
type Scratch struct {
	lp   lp.Scratch
	prob lp.Problem
}

// NewScratch returns an empty scratch that grows to the largest problem
// it solves.
func NewScratch() *Scratch { return &Scratch{} }

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 5000
	}
	if o.TimeLimit <= 0 {
		o.TimeLimit = 10 * time.Second
	}
	if math.IsNaN(o.Incumbent) || (o.Incumbent == 0 && !o.IncumbentSet) {
		o.Incumbent = math.Inf(1)
	}
	return o
}

// Result is the outcome of a MILP solve.
type Result struct {
	// Status is Optimal when an integer solution was found (Proven tells
	// whether optimality was certified), Infeasible when no integer point
	// exists, IterLimit when limits were hit, or the root LP broke down
	// (lp.Numerical), with no incumbent.
	Status    lp.Status
	X         []float64
	Objective float64
	// Nodes is the number of explored branch-and-bound nodes.
	Nodes int
	// Proven is true when the search space was exhausted, certifying
	// optimality of X.
	Proven bool
	// LPSolves counts the LP relaxations solved: the root, the
	// branch-and-bound children and the rounding heuristic's LPs.
	// LPPivots totals their simplex pivots over both phases.
	LPSolves, LPPivots int
	// LPRows and LPCols size the largest LP solved (by rows × columns).
	LPRows, LPCols int
	// LPNumerical counts the LPs stopped on a numerical breakdown
	// (lp.Numerical). Such a root leaves no incumbent and such a child
	// leaves the search unproven, as a limit-bound LP does.
	LPNumerical int
}

type node struct {
	bound  float64            // LP relaxation objective (lower bound)
	fixes  map[int][2]float64 // variable bound overrides
	branch int                // variable chosen for branching, -1 if none
	frac   float64            // fractional value of branch variable
}

type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Solve minimizes p subject to the variables in intVars taking integer
// values.
func Solve(p *lp.Problem, intVars []int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	deadline := time.Now().Add(opts.TimeLimit)

	res := &Result{Status: lp.IterLimit, Objective: opts.Incumbent}
	var bestX []float64

	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	sc.lp.Abort = opts.Cancel
	relax := func(fixes map[int][2]float64) (*lp.Solution, error) {
		q := p.CloneInto(&sc.prob)
		for v, b := range fixes {
			lo, hi := q.Bounds(v)
			if b[0] > lo {
				lo = b[0]
			}
			if b[1] < hi {
				hi = b[1]
			}
			q.SetBounds(v, lo, hi)
		}
		sol, err := q.SolveWith(&sc.lp)
		if err == nil {
			res.LPSolves++
			res.LPPivots += sol.Phase1Pivots + sol.Phase2Pivots
			if sol.Status == lp.Numerical {
				res.LPNumerical++
			}
			if sol.Rows*sol.Cols > res.LPRows*res.LPCols {
				res.LPRows, res.LPCols = sol.Rows, sol.Cols
			}
		}
		return sol, err
	}
	// withEffort carries the LP counters onto a result other than res.
	withEffort := func(r *Result) *Result {
		r.LPSolves, r.LPPivots, r.LPRows, r.LPCols = res.LPSolves, res.LPPivots, res.LPRows, res.LPCols
		r.LPNumerical = res.LPNumerical
		return r
	}

	// fractional returns the integer variable furthest from integrality.
	fractional := func(x []float64) (int, float64) {
		best, bestDist := -1, intTol
		var bestVal float64
		for _, v := range intVars {
			f := x[v] - math.Floor(x[v])
			dist := math.Min(f, 1-f)
			if dist > bestDist {
				best, bestDist, bestVal = v, dist, x[v]
			}
		}
		return best, bestVal
	}

	// tryRound fixes every integer variable at the rounding of x and
	// re-solves; a feasible result becomes an incumbent. That LP depends
	// only on the rounded vector, so a repeated vector would be a
	// bitwise-identical solve that cannot improve the incumbent again:
	// rounded records the vectors already solved, by their float bits.
	rounded := map[string]bool{}
	var key []byte
	tryRound := func(x []float64, fixes map[int][2]float64) {
		rf := map[int][2]float64{}
		for v, b := range fixes {
			rf[v] = b
		}
		key = key[:0]
		feasibleRound := true
		for _, v := range intVars {
			r := math.Round(x[v])
			lo, hi := p.Bounds(v)
			if b, ok := rf[v]; ok {
				if b[0] > lo {
					lo = b[0]
				}
				if b[1] < hi {
					hi = b[1]
				}
			}
			if r < lo-intTol || r > hi+intTol {
				feasibleRound = false
				break
			}
			rf[v] = [2]float64{r, r}
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(r))
		}
		if !feasibleRound || rounded[string(key)] {
			return
		}
		rounded[string(key)] = true
		sol, err := relax(rf)
		if err != nil || sol.Status != lp.Optimal {
			return
		}
		if sol.Objective < res.Objective-1e-9 {
			res.Objective = sol.Objective
			bestX = sol.X
			res.Status = lp.Optimal
		}
	}

	root, err := relax(nil)
	if err != nil {
		return nil, err
	}
	switch root.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return withEffort(&Result{Status: lp.Infeasible, Proven: true}), nil
	case lp.Unbounded:
		return withEffort(&Result{Status: lp.Unbounded}), nil
	default:
		// Limits, a cancel or a breakdown stopped the root LP: there is
		// no relaxation to round or branch on, and no incumbent.
		return withEffort(&Result{Status: lp.IterLimit}), nil
	}

	open := &nodeHeap{}
	pushNode := func(bound float64, fixes map[int][2]float64, x []float64) {
		v, val := fractional(x)
		if v < 0 {
			// Integral LP solution: direct incumbent.
			if bound < res.Objective-1e-9 {
				res.Objective = bound
				bestX = x
				res.Status = lp.Optimal
			}
			return
		}
		heap.Push(open, &node{bound: bound, fixes: fixes, branch: v, frac: val})
	}

	tryRound(root.X, nil)
	pushNode(root.Objective, map[int][2]float64{}, root.X)

	exhausted := true
	for open.Len() > 0 {
		if res.Nodes >= opts.MaxNodes || time.Now().After(deadline) {
			exhausted = false
			break
		}
		if opts.Cancel != nil && opts.Cancel() {
			exhausted = false
			break
		}
		nd := heap.Pop(open).(*node)
		cutoff := res.Objective - 1e-9
		if opts.GapTol > 0 && !math.IsInf(res.Objective, 1) {
			cutoff = res.Objective - opts.GapTol*math.Abs(res.Objective)
		}
		if nd.bound >= cutoff {
			continue // pruned by incumbent (within gap tolerance)
		}
		res.Nodes++

		lo, hi := math.Inf(-1), math.Floor(nd.frac)
		for side := 0; side < 2; side++ {
			fixes := map[int][2]float64{}
			for k, v := range nd.fixes {
				fixes[k] = v
			}
			prev, ok := fixes[nd.branch]
			if !ok {
				prev = [2]float64{math.Inf(-1), math.Inf(1)}
			}
			nlo, nhi := prev[0], prev[1]
			if lo > nlo {
				nlo = lo
			}
			if hi < nhi {
				nhi = hi
			}
			fixes[nd.branch] = [2]float64{nlo, nhi}

			sol, err := relax(fixes)
			if err != nil {
				return nil, err
			}
			switch {
			case sol.Status == lp.Optimal && sol.Objective < res.Objective-1e-9:
				tryRound(sol.X, fixes)
				pushNode(sol.Objective, fixes, sol.X)
			case sol.Status != lp.Optimal && sol.Status != lp.Infeasible:
				// Limits, a cancel or a breakdown stopped this child's LP:
				// its subtree was never bounded, so the search proves
				// nothing.
				exhausted = false
			}

			// Second side: x >= ceil(frac).
			lo, hi = math.Ceil(nd.frac), math.Inf(1)
		}
	}

	if res.Status == lp.Optimal {
		res.X = bestX
		res.Proven = exhausted
		return res, nil
	}
	if exhausted {
		return withEffort(&Result{Status: lp.Infeasible, Nodes: res.Nodes, Proven: true}), nil
	}
	return res, nil
}
