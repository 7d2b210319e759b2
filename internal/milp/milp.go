// Package milp solves mixed-integer linear programs by best-first branch
// and bound over the internal/lp simplex solver. Together they stand in
// for the Gurobi Optimizer used by the paper to solve the MIP partition
// problem (§3.2): instances there are small after layer-similarity
// compression, so a straightforward exact search suffices. The caller
// supplies the objective at an integer point (for the partition MIP, the
// schedule evaluator), and the rounding heuristic prices its points with
// it rather than with an LP.
//
// Like Gurobi's, the search uses a second core: the two child LPs of
// every node are solved side by side, the x >= ceil side on a helper
// goroutine. This is exact. The search always solves both children (only
// an LP build error stops it between them), and a child LP is a function
// of the problem and its bounds alone, with no incumbent and no shared
// state. Everything that reads or moves the search state (the effort
// counters, the rounding heuristic and its pricing, node pushes, pruning
// and the node, clock and cancel checks) runs after the join on the
// calling goroutine, in side order. Nodes, LP solves, pivots and
// solutions are therefore the same bits as a one-core search's; only
// wall-clock time moves. A caller with several searches to run can also
// solve their roots ahead of them, two at a time (Scratch.SolveRoot), and
// hand each search its solved root (Options.Root).
package milp

import (
	"container/heap"
	"math"
	"slices"
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
	// TimeLimit caps wall-clock solve time, the root LP's included
	// (default 10s when zero). A negative limit leaves no time: the
	// search stops after the root and the pricing of its rounding. With
	// Root set, the root was solved before Solve was called, so the
	// caller passes what is left of its limit after that solve, negative
	// if none is.
	TimeLimit time.Duration
	// Incumbent seeds the upper bound with a known feasible objective so
	// the search can prune immediately. It counts only when IncumbentSet
	// is true; the zero value of Options means "no incumbent".
	Incumbent    float64
	IncumbentSet bool
	// GapTol is the relative optimality gap: nodes whose LP bound is
	// within GapTol of the incumbent are pruned. Zero means exact.
	GapTol float64
	// Cancel, when non-nil, is polled between branch-and-bound nodes and
	// every 64 simplex pivots inside each LP; returning true abandons the
	// search early (the result is then best-effort, as if a node or time
	// limit had been hit). It lets a caller running several solves
	// concurrently stop work whose outcome it already knows it will
	// discard. The two child LPs of a node run concurrently, so Cancel
	// may be called from two goroutines at once and must be safe for
	// that.
	Cancel func() bool
	// Scratch, when non-nil, supplies pooled working memory for the
	// per-node LP clones and simplex tableaus. One scratch serves one
	// Solve at a time across any number of Solve calls; concurrent
	// sharing is not safe.
	Scratch *Scratch
	// Root, when non-nil, is the problem's LP relaxation already solved
	// by Scratch.SolveRoot. Solve counts it as its first LP, where it
	// would count a root it solved itself, and searches on from it; the
	// result is the same bits as a Solve that solves its own root.
	Root *lp.Solution
}

// Scratch pools the branch-and-bound working memory: two LP workspaces,
// one per child side of a node, each an LP problem clone mutated per
// solve and a simplex tableau. Reuse across sequential Solve calls is
// safe and removes the dominant allocations of the search; concurrent
// sharing is not safe.
type Scratch struct {
	// ws[0] serves the root and each node's x <= floor child; ws[1]
	// serves the x >= ceil child on the helper goroutine.
	// SolveRoot solves a root ahead of its Solve in either.
	ws [2]workspace
}

// workspace is the pooled memory of one LP solve at a time.
type workspace struct {
	lp   lp.Scratch
	prob lp.Problem
}

// solve solves the relaxation of p under fixes. It touches nothing but
// w, so the two children of a node may run it at once.
func (w *workspace) solve(p *lp.Problem, fixes map[int][2]float64) (*lp.Solution, error) {
	q := p.CloneInto(&w.prob)
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
	return q.SolveWith(&w.lp)
}

// SolveRoot solves the LP relaxation of p in workspace w (0 or 1) of s,
// polling cancel as Solve polls Options.Cancel, for a later Solve of p
// with Options.Root. It is the solve Solve would run for its root, so
// the result is the same bits. Two goroutines may call it at once with
// different workspaces, but not beside a Solve on s.
func (s *Scratch) SolveRoot(p *lp.Problem, w int, cancel func() bool) (*lp.Solution, error) {
	s.ws[w].lp.Abort = cancel
	return s.ws[w].solve(p, nil)
}

// NewScratch returns an empty scratch that grows to the largest problem
// it solves.
func NewScratch() *Scratch { return &Scratch{} }

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 5000
	}
	if o.TimeLimit == 0 {
		o.TimeLimit = 10 * time.Second
	}
	if !o.IncumbentSet {
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
	Status lp.Status
	// X is the incumbent's integer point: the value of each integer
	// variable, in intVars order. It carries no continuous variable.
	X         []float64
	Objective float64
	// Nodes is the number of explored branch-and-bound nodes.
	Nodes int
	// Proven is true when the search space was exhausted, certifying
	// optimality of X.
	Proven bool
	// LPSolves counts the LP relaxations solved: the root and the
	// branch-and-bound children. LPPivots totals their simplex pivots
	// over both phases.
	LPSolves, LPPivots int
	// LPRows and LPCols size the largest LP solved (by rows × columns).
	LPRows, LPCols int
	// LPNumerical counts the LPs stopped on a numerical breakdown
	// (lp.Numerical). Such a root leaves no incumbent and such a child
	// leaves the search unproven, as a limit-bound LP does.
	LPNumerical int
}

// AddLP adds a solved LP to the effort counters of r.
func (r *Result) AddLP(sol *lp.Solution) {
	r.LPSolves++
	r.LPPivots += sol.Phase1Pivots + sol.Phase2Pivots
	if sol.Status == lp.Numerical {
		r.LPNumerical++
	}
	if sol.Rows*sol.Cols > r.LPRows*r.LPCols {
		r.LPRows, r.LPCols = sol.Rows, sol.Cols
	}
}

// Cutoff is the LP bound at or above which the search prunes a node
// against an incumbent objective inc, with relative gap tolerance
// gapTol. A root whose bound reaches the cutoff of the incumbent Solve
// starts from is never branched on: rounding it can only lower the
// cutoff further below the root's bound.
func Cutoff(inc, gapTol float64) float64 {
	if gapTol > 0 && !math.IsInf(inc, 1) {
		return inc - gapTol*math.Abs(inc)
	}
	return inc - 1e-9
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

// branch solves the two child LPs of a node by calling solve(side, w)
// for side 0 and side 1, each with the index w of the workspace to use:
// side 1 on a helper goroutine with workspace 1, beside side 0 on the
// calling goroutine with workspace 0. It returns when both are solved.
// Only tests replace it, with the one-core order.
var branch = func(solve func(side, w int)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		solve(1, 1)
	}()
	solve(0, 0)
	<-done
}

// Solve minimizes p subject to the variables in intVars taking integer
// values. price is the objective at an integer point: given a value for
// each integer variable, in intVars order, it returns the least
// objective of p with those variables fixed there, or ok = false if no
// point of p has them. The rounding heuristic prices each rounded LP
// solution through it instead of solving an LP. price runs on the
// calling goroutine and must not keep x.
func Solve(p *lp.Problem, intVars []int, price func(x []float64) (obj float64, ok bool), opts Options) (*Result, error) {
	opts = opts.withDefaults()
	deadline := time.Now().Add(opts.TimeLimit)

	res := &Result{Status: lp.IterLimit, Objective: opts.Incumbent}
	var bestX []float64

	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	sc.ws[0].lp.Abort = opts.Cancel
	sc.ws[1].lp.Abort = opts.Cancel
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

	// tryRound prices the rounding of x as an incumbent when every
	// rounded integer variable lies within its bounds and the node's
	// fixes. A point priced before cannot improve the incumbent again.
	point := make([]float64, len(intVars))
	tryRound := func(x []float64, fixes map[int][2]float64) {
		for i, v := range intVars {
			r := math.Round(x[v])
			lo, hi := p.Bounds(v)
			if b, ok := fixes[v]; ok {
				lo, hi = max(lo, b[0]), min(hi, b[1])
			}
			if r < lo-intTol || r > hi+intTol {
				return
			}
			point[i] = r
		}
		if obj, ok := price(point); ok && obj < res.Objective-1e-9 {
			res.Objective = obj
			bestX = slices.Clone(point)
			res.Status = lp.Optimal
		}
	}

	root := opts.Root
	if root == nil {
		var err error
		if root, err = sc.ws[0].solve(p, nil); err != nil {
			return nil, err
		}
	}
	res.AddLP(root)
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
				bestX = make([]float64, len(intVars))
				for i, v := range intVars {
					bestX[i] = math.Round(x[v])
				}
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
		if res.Nodes >= opts.MaxNodes || opts.TimeLimit < 0 || time.Now().After(deadline) {
			exhausted = false
			break
		}
		if opts.Cancel != nil && opts.Cancel() {
			exhausted = false
			break
		}
		nd := heap.Pop(open).(*node)
		if nd.bound >= Cutoff(res.Objective, opts.GapTol) {
			continue // pruned by incumbent (within gap tolerance)
		}
		res.Nodes++

		// Side 0 is x <= floor(frac), side 1 is x >= ceil(frac).
		var fixes [2]map[int][2]float64
		for side, b := range [2][2]float64{{math.Inf(-1), math.Floor(nd.frac)}, {math.Ceil(nd.frac), math.Inf(1)}} {
			f := map[int][2]float64{}
			for k, v := range nd.fixes {
				f[k] = v
			}
			prev, ok := f[nd.branch]
			if !ok {
				prev = [2]float64{math.Inf(-1), math.Inf(1)}
			}
			if b[0] > prev[0] {
				prev[0] = b[0]
			}
			if b[1] < prev[1] {
				prev[1] = b[1]
			}
			f[nd.branch] = prev
			fixes[side] = f
		}
		var sols [2]*lp.Solution
		var errs [2]error
		branch(func(side, w int) { sols[side], errs[side] = sc.ws[w].solve(p, fixes[side]) })
		for side, sol := range sols {
			if errs[side] != nil {
				return nil, errs[side]
			}
			res.AddLP(sol)
			switch {
			case sol.Status == lp.Optimal && sol.Objective < res.Objective-1e-9:
				tryRound(sol.X, fixes[side])
				pushNode(sol.Objective, fixes[side], sol.X)
			case sol.Status != lp.Optimal && sol.Status != lp.Infeasible:
				// Limits, a cancel or a breakdown stopped this child's LP:
				// its subtree was never bounded, so the search proves
				// nothing.
				exhausted = false
			}
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
