package partition

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobius/internal/lp"
	"mobius/internal/milp"
	"mobius/internal/model"
	"mobius/internal/profile"
)

// ErrCancelled reports a planning context cancelled or past its deadline.
// The sweep never returns a partial best-effort partition in that case —
// whether a candidate solve happened to finish is timing-dependent, and a
// deadline hit must yield the same outcome at every parallelism level.
// The error wraps the context's error too, so errors.Is finds
// context.DeadlineExceeded or context.Canceled behind it.
var ErrCancelled = errors.New("partition: planning cancelled")

// MIPOptions bound the MIP partition search.
type MIPOptions struct {
	// MaxStages caps the candidate stage count S (default: min(blocks,
	// 24)). Partitions with more stages than the cap are still covered by
	// the min-stage comparison below.
	MaxStages int
	// NodeLimit and TimeLimit bound each MILP solve. TimeLimit includes
	// the candidate's root relaxation, which the root phase solves.
	NodeLimit int
	TimeLimit time.Duration
	// Parallelism is the number of candidate MILPs solved concurrently
	// (0 means GOMAXPROCS, 1 means one at a time after a two-wide root
	// phase, each only when the sweep waits on it). Above 1, workers
	// take the candidate the sweep waits on first and otherwise solve
	// ahead of it, and the sweep may never use those solves. Before any
	// branch and bound the sweep solves every candidate's root
	// relaxation, two at a time; each MILP then solves the two child LPs
	// of every node on a second goroutine, so a sweep may use up to
	// 2 × Parallelism cores. The sweep result is identical at every
	// level: roots and candidate solves are independent, the shared
	// incumbent bound is sealed before the fan-out, and only the solves
	// the sweep waits on, in an order fixed by the candidates' bounds,
	// are used and counted.
	Parallelism int
	// DisableCache forces a fresh solve. MIP results are otherwise
	// memoized per (model, GPU, N, M, G, B, options) for the lifetime of
	// the process, since the same planning problem recurs across
	// experiments. The overhead benchmark (Figure 12) disables the cache
	// to measure true solve time.
	DisableCache bool
}

// Normalized returns the options with every solver default applied for a
// model with the given transformer-block count, exactly as the sweep
// itself applies them. The planning service canonicalizes MIP options
// through it so a zero-valued field and its explicit default hash to the
// same cache key.
func (o MIPOptions) Normalized(blocks int) MIPOptions { return o.withDefaults(blocks) }

func (o MIPOptions) withDefaults(blocks int) MIPOptions {
	if o.MaxStages <= 0 {
		o.MaxStages = 24
	}
	// The stage count can reach blocks+2: every block its own stage plus
	// the embedding and the head as standalone edge stages.
	if o.MaxStages > blocks+2 {
		o.MaxStages = blocks + 2
	}
	if o.NodeLimit <= 0 {
		o.NodeLimit = 150
	}
	if o.TimeLimit <= 0 {
		o.TimeLimit = 3 * time.Second
	}
	return o
}

// mipGapTol is the relative optimality gap for each MILP solve: schedule
// estimates are only accurate to a few percent, so proving the last 0.5%
// of optimality is wasted effort.
const mipGapTol = 0.005

// mipPatience stops the sweep over S after this many consecutive
// non-improving candidates.
const mipPatience = 2

// MIPStats reports the solver effort, feeding the Figure 12 overhead
// experiment.
type MIPStats struct {
	// TriedStageCounts lists the candidate S values the sweep's patience
	// rule reached, in sweep order, however each was resolved.
	TriedStageCounts []int
	// Resolutions says how the sweep resolved each of TriedStageCounts.
	Resolutions []Resolution `json:"-"`
	// Nodes is the total branch-and-bound node count across candidates.
	Nodes int
	// LPSolves and LPPivots total the LP relaxations counted across
	// candidates and their simplex pivots: a solved candidate's MILP, and
	// the root LP of one its root resolved. Candidates the patience stop
	// skips count nothing, nor do solves the sweep ran ahead but never
	// used.
	LPSolves, LPPivots int
	// LPRows and LPCols size the largest LP counted (by rows × columns),
	// as simplex tableau rows and columns.
	LPRows, LPCols int
	// LPNumerical counts the LPs stopped on a numerical breakdown; a
	// candidate whose root broke down falls back to the balanced
	// partition, as a limit-bound one does.
	LPNumerical int
	// SolveTime is the time spent in the MILP solver on the counted LPs,
	// summed over candidates: each solved one's root relaxation plus its
	// search, and the root of each one its root resolved. Roots are
	// solved two at a time, and candidates beside each other, so the sum
	// can exceed wall-clock time even when Parallelism is 1.
	SolveTime time.Duration
	// BestStageCount is the S of the returned partition.
	BestStageCount int
	// StepTime is the modelled step duration of the returned partition.
	StepTime float64
	// Proven is true when every tried candidate was solved to certified
	// optimality or resolved by a bound.
	Proven bool
	// UsedMinStageFallback is true when the min-stage partition (beyond
	// MaxStages) beat every MIP candidate — the regime of Figure 9's
	// second observation.
	UsedMinStageFallback bool
}

// Resolution is how the sweep resolved a candidate stage count.
type Resolution uint8

const (
	// MILPProven: its MILP returned a partition certified optimal within
	// the gap tolerance.
	MILPProven Resolution = iota
	// MILPUnproven: its MILP returned a partition when a limit stopped it.
	MILPUnproven
	// BalancedFallback: its MILP found no partition faster than the
	// sealed incumbent, or none before a limit, and the balanced
	// partition stood in.
	BalancedFallback
	// NoPartition: no partition with S stages came back, from the
	// formulation or the MILP.
	NoPartition
	// RootLP: its root LP's bound proved that its MILP cannot change the
	// plan, and no search ran.
	RootLP
	// RootBound: rootBound proved that its MILP cannot change the plan,
	// and no LP ran.
	RootBound
)

func (r Resolution) String() string {
	switch r {
	case MILPProven:
		return "MILP"
	case MILPUnproven:
		return "MILP (unproven)"
	case BalancedFallback:
		return "balanced"
	case NoPartition:
		return "no partition"
	case RootLP:
		return "root LP"
	case RootBound:
		return "root bound"
	}
	return fmt.Sprintf("Resolution(%d)", uint8(r))
}

// addEffort adds one MILP solve's node and LP counters and folds its
// Proven flag into the sweep's; r may be nil.
func (s *MIPStats) addEffort(r *milp.Result) {
	if r == nil {
		return
	}
	s.Proven = s.Proven && r.Proven
	s.Nodes += r.Nodes
	s.LPSolves += r.LPSolves
	s.LPPivots += r.LPPivots
	s.LPNumerical += r.LPNumerical
	if r.LPRows*r.LPCols > s.LPRows*s.LPCols {
		s.LPRows, s.LPCols = r.LPRows, r.LPCols
	}
}

// blockStats extracts the compressed per-group statistics the MILP is
// formulated over (layer similarity, §3.2).
type blockStats struct {
	blocks            int
	tfBlk, tbBlk      float64
	pBlk              float64 // GB
	act               float64 // GB, boundary activation per microbatch
	wBlk, wEmb, wHead float64 // GB
	pEmb, pHead       float64 // GB
	tfEmb, tbEmb      float64
	tfHead, tbHead    float64
}

func gatherBlockStats(params Params) (*blockStats, error) {
	const toGB = 1e-9
	bs := &blockStats{}
	seenBlk := false
	for _, l := range params.Profile.Layers {
		switch l.Layer.Kind {
		case model.KindEmbedding:
			bs.pEmb = l.ParamBytes * toGB
			bs.wEmb = l.WorkingBytes * toGB
			bs.tfEmb, bs.tbEmb = l.FwdTime, l.BwdTime
		case model.KindHead:
			bs.pHead = l.ParamBytes * toGB
			bs.wHead = l.WorkingBytes * toGB
			bs.tfHead, bs.tbHead = l.FwdTime, l.BwdTime
		case model.KindBlock:
			bs.blocks++
			if !seenBlk {
				seenBlk = true
				bs.pBlk = l.ParamBytes * toGB
				bs.wBlk = l.WorkingBytes * toGB
				bs.act = l.ActOutBytes * toGB
				bs.tfBlk, bs.tbBlk = l.FwdTime, l.BwdTime
			}
		}
	}
	if !seenBlk {
		return nil, fmt.Errorf("partition: model has no transformer blocks")
	}
	return bs, nil
}

// MIP runs the paper's MIP partition algorithm: for each candidate stage
// count S (a multiple of the GPU count), it formulates the mixed-integer
// program of §3.2 — boolean layer placement compressed to per-stage block
// counts via layer similarity, continuous start times t^e_{j,m}, prefetch
// sizes P^e_j, memory constraints (4)-(6) and pipeline-order constraints
// (8)-(11) — solves it with the branch-and-bound solver, and returns the
// best partition found.
func MIP(params Params, opts MIPOptions) (*Partition, *MIPStats, error) {
	return MIPCtx(context.Background(), params, opts)
}

// MIPCtx is MIP honoring a context: candidate solves poll ctx between
// branch-and-bound nodes and the sweep returns ErrCancelled once ctx is
// done. Cancelled sweeps are never cached, so a later call with a live
// context re-solves from scratch.
func MIPCtx(ctx context.Context, params Params, opts MIPOptions) (*Partition, *MIPStats, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, nil, err
	}
	// An already-done context short-circuits before the cache: the caller
	// asked for a deadline-bounded answer and must get the deterministic
	// cancellation outcome whether or not a previous run warmed the cache.
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if !opts.DisableCache {
		// Parallelism does not change the result, so it is stripped from
		// the cache key: runs at different worker counts share entries.
		kopts := opts
		kopts.Parallelism = 0
		key := mipKey{
			model:     params.Profile.Model,
			gpu:       params.Profile.GPU.Name,
			n:         params.NumGPUs,
			m:         params.Microbatches,
			mem:       params.GPUMem,
			bandwidth: params.Bandwidth,
			latency:   params.Latency,
			opts:      kopts,
		}
		mipCacheMu.Lock()
		if e, ok := mipCache[key]; ok {
			mipCacheMu.Unlock()
			return e.part, e.stats, e.err
		}
		mipCacheMu.Unlock()
		part, stats, _, err := mipSolve(ctx, params, opts)
		if errors.Is(err, ErrCancelled) {
			return part, stats, err // a timed-out sweep is not a reusable result
		}
		mipCacheMu.Lock()
		mipCache[key] = mipCacheEntry{part, stats, err}
		mipCacheMu.Unlock()
		return part, stats, err
	}
	part, stats, _, err := mipSolve(ctx, params, opts)
	return part, stats, err
}

type mipKey struct {
	model     model.Config
	gpu       string
	n, m      int
	mem       float64
	bandwidth float64
	latency   float64
	opts      MIPOptions
}

type mipCacheEntry struct {
	part  *Partition
	stats *MIPStats
	err   error
}

var (
	mipCacheMu sync.Mutex
	mipCache   = map[mipKey]mipCacheEntry{}
)

// mipSolve is MIPCtx uncached, on defaulted and validated params. It
// returns the sweep's candidates beside the partition and its stats.
func mipSolve(ctx context.Context, params Params, opts MIPOptions) (*Partition, *MIPStats, []*cand, error) {
	bs, err := gatherBlockStats(params)
	if err != nil {
		return nil, nil, nil, err
	}
	opts = opts.withDefaults(bs.blocks)
	cands := stageCounts(params, bs.blocks, opts.MaxStages)

	// The min-stage decomposition can exceed MaxStages (one block per
	// stage); the paper observes the MIP solution degenerates to it when
	// blocks barely fit in GPU memory. It is compared after the sweep.
	tMS := math.Inf(1)
	ms, err := MinStage(params)
	if err != nil || len(ms.Stages) <= opts.MaxStages {
		ms = nil
	} else if tMS, err = StepTime(params, ms); err != nil {
		return nil, nil, nil, err
	}

	cs, v, err := sweep(ctx, params, bs, opts, cands, tMS)
	// A deadline that expired mid-sweep invalidates the whole result, even
	// if some candidates finished: which ones did is timing-dependent, and
	// the contract is all-or-nothing (see ErrCancelled).
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, nil, fmt.Errorf("%w: %w", ErrCancelled, cerr)
	}
	if err != nil {
		return nil, nil, nil, err
	}

	stats := &MIPStats{Proven: true, StepTime: Infeasible}
	for _, c := range cs[:v.tried] {
		stats.TriedStageCounts = append(stats.TriedStageCounts, c.S)
		stats.Resolutions = append(stats.Resolutions, c.how)
		stats.SolveTime += c.dur
		stats.addEffort(c.effort)
	}
	if v.failed {
		return nil, nil, nil, cs[v.chosen].err
	}
	var best *Partition
	switch {
	case v.chosen == len(cs):
		best, stats.UsedMinStageFallback = ms, true
		stats.StepTime, stats.BestStageCount = tMS, len(ms.Stages)
	case v.chosen >= 0:
		c := cs[v.chosen]
		best, stats.StepTime, stats.BestStageCount = c.part, c.t, c.S
	default:
		return nil, nil, nil, fmt.Errorf("partition: no feasible partition found (GPU memory %g GB too small?)", params.GPUMem/1e9)
	}
	best.Algorithm = AlgoMIP
	return best, stats, cs, nil
}

// lazy lets the sweep resolve a candidate by its bounds. Only tests
// clear it, for the eager sweep: every candidate the patience rule
// reaches is solved, in order.
var lazy = true

// cand is one candidate stage count of the sweep, with what is known of
// the step time its solveOne returns and, once resolved, the result.
type cand struct {
	S        int
	prob     *lp.Problem
	root     rootRes
	balanced *Partition
	// tBal is the balanced fallback's step time; hasBal is false when
	// there is none, or it cannot be priced.
	tBal   float64
	hasBal bool
	// Every partition the MILP returns has a step time of at least lb
	// and below hi, the sealed incumbent's step time.
	lb, hi float64

	done   bool
	how    Resolution
	part   *Partition
	t      float64 // the step time of part
	err    error
	effort *milp.Result // the LPs counted for it, if any
	dur    time.Duration
}

// span returns what the replay knows of the candidate's outcome.
func (c *cand) span() span {
	switch {
	case c.done && c.err != nil:
		return span{resolved: true, failed: true}
	case c.done && c.part == nil:
		return span{resolved: true, none: true}
	case c.done:
		return span{resolved: true, lo: c.t, hi: c.t}
	case !lazy:
		return span{none: true, lo: math.Inf(-1), hi: math.Inf(1)}
	}
	s := span{none: !c.hasBal, lo: c.lb, hi: c.hi}
	if c.hasBal {
		s.lo, s.hi = math.Min(s.lo, c.tBal), math.Max(s.hi, c.tBal)
	}
	return s
}

// solved is one candidate's solveOne: its partition (nil for none), the
// solver's result, the time taken with its root, and its error.
type solved struct {
	part *Partition
	res  *milp.Result
	dur  time.Duration
	err  error
}

// resolve records the candidate's solve r.
func (c *cand) resolve(params Params, r solved) {
	c.done, c.part, c.effort, c.dur = true, r.part, r.res, r.dur
	switch {
	case r.err != nil:
		c.err = r.err
		return
	case r.part == nil:
		c.how = NoPartition
		return
	case r.part == c.balanced:
		c.how = BalancedFallback
	case r.res.Proven:
		c.how = MILPProven
	default:
		c.how = MILPUnproven
	}
	c.t, c.err = StepTime(params, r.part)
}

// sweep resolves the candidate stage counts ss lazily: each solves
// its MILP only when the replay cannot reach the sweep's verdict
// without it. It returns the candidates and the verdict, which is the
// one the replay of every candidate's solve reaches.
//
// A candidate is resolved in one of four ways: by rootBound or by its
// root LP, whose bound (with the balanced fallback and the sealed
// incumbent) proves its outcome cannot change the verdict; by its MILP,
// when the MILP cannot branch; or by its MILP on demand. The order of
// demand is fixed: first every candidate is bounded by rootBound, and
// when that decides, nothing is formulated; then the root phase solves
// every root LP and every candidate whose MILP cannot branch is solved;
// then the unresolved candidate with the lowest bound; then whatever the
// replay is stuck on, until it decides. The workers solve unresolved
// candidates ahead in ascending bound, but only the solves in that
// order are used, so the verdict and the effort are the same at every
// parallelism level.
func sweep(ctx context.Context, params Params, bs *blockStats, opts MIPOptions, ss []int, tMS float64) ([]*cand, verdict, error) {
	// Balanced-heuristic partitions for every candidate, computed before
	// the fan-out; each is its candidate's fallback and seeds the shared
	// incumbent bound. The bound is sealed at the minimum over all seeds:
	// every solve prunes against the same value no matter when it starts,
	// so the sweep result is identical at every parallelism level
	// (mid-flight tightening would make pruning timing-dependent).
	cs := make([]*cand, len(ss))
	bound := math.Inf(1)
	for i, s := range ss {
		c := &cand{S: s}
		cs[i] = c
		b, err := Balanced(params, s)
		if err != nil {
			continue
		}
		c.balanced = b
		t, err := StepTime(params, b)
		if err != nil {
			continue
		}
		c.tBal, c.hasBal = t, true
		if !math.IsInf(t, 1) {
			// Seed with slack: the analytic evaluator and the LP agree on
			// the model, but the seed must never over-prune the optimum.
			if inc := (t - bs.tbEmb) * 1.001; inc < bound {
				bound = inc
			}
		}
	}
	// A MILP's partition beats the incumbent by 1e-9; one it cannot find
	// leaves the balanced fallback. rootBound bounds any partition with S
	// stages; one it finds none for is one formulate rejects too.
	for _, c := range cs {
		c.hi = bound + bs.tbEmb
		lb, ok := rootBound(params, bs, c.S)
		if !ok {
			c.resolve(params, solved{})
			continue
		}
		c.lb = lb + bs.tbEmb
	}
	decide := func() (verdict, int) {
		spans := make([]span, len(cs))
		for i, c := range cs {
			spans[i] = c.span()
		}
		v, stuck := replay(spans, tMS)
		if !lazy && stuck >= 0 {
			stuck = slices.IndexFunc(cs, func(c *cand) bool { return !c.done })
		}
		return v, stuck
	}
	// finish records how the candidates left unresolved were resolved:
	// by a root LP, whose effort counts as the proof, or by rootBound.
	finish := func(v verdict) ([]*cand, verdict, error) {
		for _, c := range cs {
			switch {
			case c.done:
			case c.root.sol != nil:
				c.how, c.effort, c.dur = RootLP, &milp.Result{Proven: true}, c.root.dur
				c.effort.AddLP(c.root.sol)
			default:
				c.how = RootBound
			}
		}
		return cs, v, nil
	}
	if v, stuck := decide(); stuck < 0 {
		return finish(v)
	}

	var cancelled atomic.Bool
	// abort is polled by the root phase's two LPs and then by every
	// solve's LPs, up to two at a time per MILP (a node's sibling LPs run
	// concurrently); an atomic load and ctx.Err are safe for that.
	abort := func() bool { return cancelled.Load() || ctx.Err() != nil }

	// The root phase solves every candidate's root relaxation, two at a
	// time, so that the second core is busy during the roots too. It runs
	// in the scratch this goroutine then solves its candidates in.
	probs := make([]*lp.Problem, len(cs))
	for i, c := range cs {
		if !c.done {
			c.prob = formulate(params, bs, c.S)
			probs[i] = c.prob
		}
	}
	first := milp.NewScratch()
	roots := solveRoots(probs, first, abort)
	solve := func(c *cand, sc *milp.Scratch) solved {
		start := time.Now()
		part, res, err := solveOne(params, bs, c.S, c.prob, c.root, opts, bound, c.balanced, abort, sc)
		return solved{part, res, c.root.dur + time.Since(start), err}
	}
	cutoff := milp.Cutoff(bound, mipGapTol)
	for i, c := range cs {
		if c.done || abort() {
			continue
		}
		c.root = roots[i]
		if sol := c.root.sol; c.root.err == nil && (sol == nil || sol.Status == lp.Optimal && sol.Objective < cutoff) {
			// Its MILP may branch; until it must, its root bounds it (a
			// root the root phase left is solved by the MILP).
			if sol != nil {
				c.lb = math.Max(c.lb, sol.Objective-boundSlack*math.Abs(sol.Objective)+bs.tbEmb)
			}
			continue
		}
		// Its MILP stops at the root: solve it now, with no further LP.
		c.resolve(params, solve(c, first))
	}
	if abort() {
		return nil, verdict{}, nil
	}
	v, stuck := decide()
	if stuck < 0 {
		return finish(v)
	}

	// The unresolved candidates in ascending bound: the reference order
	// solves the first one next, and the workers solve ahead in this
	// order. claimed marks a candidate some goroutine solves, and
	// finished[i] closes once results[i] holds candidate i's solve.
	var ahead []int
	for i, c := range cs {
		if !c.done {
			ahead = append(ahead, i)
		}
	}
	slices.SortStableFunc(ahead, func(a, b int) int { return cmp.Compare(cs[a].span().lo, cs[b].span().lo) })
	results := make([]solved, len(cs))
	claimed := make([]atomic.Bool, len(cs))
	finished := make([]chan struct{}, len(cs))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	run := func(i int, sc *milp.Scratch) {
		results[i] = solve(cs[i], sc)
		close(finished[i])
	}

	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, len(ahead))
	// want is the candidate the replay waits on. With one solve at a time
	// this goroutine solves it, in the root phase's scratch. Otherwise par
	// workers each take it when it is unclaimed and else the next
	// unclaimed candidate in bound order, each in its own scratch, and
	// this goroutine only waits and replays: a worker's solve is used only
	// once the replay waits on it.
	var want atomic.Int64
	want.Store(int64(ahead[0]))
	next := func() int {
		if w := int(want.Load()); claimed[w].CompareAndSwap(false, true) {
			return w
		}
		for _, i := range ahead {
			if claimed[i].CompareAndSwap(false, true) {
				return i
			}
		}
		return -1
	}
	var wg sync.WaitGroup
	for w := 0; w < par && par > 1; w++ {
		sc := first
		if w > 0 {
			sc = milp.NewScratch()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort() {
				i := next()
				if i < 0 {
					return // every candidate the replay can wait on is claimed
				}
				run(i, sc)
			}
		}()
	}
	// All exit paths join the pool: solves poll abort between nodes and
	// inside LPs, so a decided or cancelled sweep shuts down promptly and
	// leaks nothing.
	defer wg.Wait()
	defer cancelled.Store(true)

	for {
		w := int(want.Load())
		if par == 1 {
			run(w, first)
		}
		// Workers stop taking candidates once ctx is done, so the one
		// waited on may never be solved.
		select {
		case <-finished[w]:
		case <-ctx.Done():
		}
		if abort() {
			return nil, verdict{}, nil
		}
		cs[w].resolve(params, results[w])
		v, stuck := decide()
		if stuck < 0 {
			return finish(v)
		}
		want.Store(int64(stuck))
	}
}

// stageCounts lists the candidate stage counts S of the sweep: the
// multiples of the GPU count up to maxStages into which the blocks fit.
func stageCounts(params Params, blocks, maxStages int) []int {
	maxB := maxLayersPerStage(params)
	var cands []int
	for s := params.NumGPUs; s <= maxStages; s += params.NumGPUs {
		if s*maxB < blocks {
			continue // cannot fit the model into s stages
		}
		cands = append(cands, s)
	}
	return cands
}

// rootRes is one candidate's root relaxation solved by the root phase,
// with its solve time and error; sol is nil for a root it did not solve.
type rootRes struct {
	sol *lp.Solution
	dur time.Duration
	err error
}

// solveRoots is the sweep's root phase: it solves the root relaxation of
// every non-nil problem, two at a time, largest stage count (last
// index) first, on the calling goroutine and one helper, in the two LP
// workspaces of sc. Both poll abort before each root and inside it, and
// take no further root once it is true. Roots are pure functions of
// their problems, so each is the same bits as the root its MILP would
// solve itself. Only tests replace it, with one that solves none, so
// that each MILP solves its own root as before the root phase.
var solveRoots = func(probs []*lp.Problem, sc *milp.Scratch, abort func() bool) []rootRes {
	roots := make([]rootRes, len(probs))
	var next atomic.Int64
	next.Store(int64(len(probs)))
	solve := func(w int) {
		for !abort() {
			i := int(next.Add(-1))
			if i < 0 {
				return
			}
			if probs[i] == nil {
				continue
			}
			start := time.Now()
			sol, err := sc.SolveRoot(probs[i], w, abort)
			roots[i] = rootRes{sol: sol, dur: time.Since(start), err: err}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		solve(1)
	}()
	solve(0)
	<-done
	return roots
}

// solveOne solves the MILP p formulated for a fixed stage count S from
// its root, solved by the root phase (or, when root.sol is nil, by the
// MILP itself), pricing its integer points with pricer. It returns a nil
// partition when the instance is infeasible, p == nil among them. The
// incumbent objective (already in the MILP's objective space) and the
// balanced-heuristic fallback partition are computed by the caller so
// they can be shared across concurrent solves; cancel is polled by the
// solver to abandon work whose result the sweep will discard; sc is the
// calling worker's pooled solver scratch. When limits are hit before the
// MILP produces a partition, the balanced fallback — possibly nil —
// stands in. res is the solver's result, for its effort counters; it is
// nil when no solve ran.
func solveOne(params Params, bs *blockStats, S int, p *lp.Problem, root rootRes, opts MIPOptions, incumbent float64, balanced *Partition, cancel func() bool, sc *milp.Scratch) (part *Partition, res *milp.Result, err error) {
	if p == nil {
		// A single block cannot fit some stage: infeasible S.
		return nil, nil, nil
	}
	if root.err != nil {
		return nil, nil, root.err
	}
	intVars := make([]int, S)
	for j := 0; j < S; j++ {
		intVars[j] = j
	}
	mopts := milp.Options{MaxNodes: opts.NodeLimit, TimeLimit: opts.TimeLimit, GapTol: mipGapTol, Scratch: sc, Root: root.sol}
	if root.sol != nil {
		// The root's solve counts against the limit; one that used it
		// all leaves the search none, never milp's default.
		if mopts.TimeLimit -= root.dur; mopts.TimeLimit == 0 {
			mopts.TimeLimit = -1
		}
	}
	if !math.IsInf(incumbent, 1) {
		mopts.Incumbent = incumbent
		mopts.IncumbentSet = true
	}
	if cancel != nil {
		mopts.Cancel = cancel
	}

	res, err = milp.Solve(p, intVars, pricer(params, bs), mopts)
	if err != nil {
		return nil, nil, err
	}
	if res.Status != lp.Optimal {
		// Limits hit with no MILP incumbent: fall back to the balanced
		// heuristic so the sweep still has a candidate for this S.
		return balanced, res, nil
	}
	part, err = fromBlockCounts(params.Profile, res.X)
	if err != nil {
		return nil, res, err
	}
	return part, res, nil
}

// pricer returns the MILP's objective at an integer point, for
// milp.Solve: given the block count of each stage, the step time of that
// partition less the embedding's backward time, or ok = false when the
// counts make no partition or a stage exceeds GPU memory.
func pricer(params Params, bs *blockStats) func(n []float64) (float64, bool) {
	return func(n []float64) (float64, bool) {
		part, err := fromBlockCounts(params.Profile, n)
		if err != nil {
			return 0, false
		}
		t, err := StepTime(params, part)
		if err != nil || math.IsInf(t, 1) {
			return 0, false
		}
		return t - bs.tbEmb, true
	}
}

// fromBlockCounts builds the MIP partition whose stage j holds n[j]
// transformer blocks (rounded to the nearest integer), the embedding
// joining the first stage and the head the last.
func fromBlockCounts(prof *profile.Profile, n []float64) (*Partition, error) {
	sizes := make([]int, len(n))
	for j, v := range n {
		sizes[j] = int(math.Round(v))
	}
	sizes[0]++            // embedding layer
	sizes[len(sizes)-1]++ // head layer
	return FromBoundaries(prof, sizes, AlgoMIP)
}

// Relaxation returns the MILP of §3.2 for a fixed stage count S exactly
// as the sweep formulates it for a candidate it solves, the root LP
// relaxation of that candidate, or nil when a single block cannot fit
// some stage. Its variables [0, S) are the per-stage block counts. No
// program calls it: it exists so that the LP's differential tests can
// solve the roots of candidates the root bound resolves, which no cold
// plan solves.
func Relaxation(params Params, S int) (*lp.Problem, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	bs, err := gatherBlockStats(params)
	if err != nil {
		return nil, err
	}
	return formulate(params, bs, S), nil
}

// formulate builds the MILP of §3.2 for a fixed stage count S. Its
// integer variables are the per-stage block counts, variables [0, S);
// the objective is the step time less the embedding's backward time. It
// returns nil when a single block cannot fit some stage.
func formulate(params Params, bs *blockStats, S int) *lp.Problem {
	N := params.NumGPUs
	M := params.Microbatches
	G := params.GPUMem * 1e-9    // GB
	B := params.Bandwidth * 1e-9 // GB/s
	lat := params.Latency        // per-transfer setup seconds

	// Variable layout.
	nVarAt := func(j int) int { return j }
	tfAt := func(j, m int) int { return S + j*M + m }
	tbAt := func(j, m int) int { return S + S*M + j*M + m }
	nPf := S - N
	if nPf < 0 {
		nPf = 0
	}
	pfAt := func(j int) int { return S + 2*S*M + (j - N) } // j in [N, S)
	pbAt := func(j int) int { return S + 2*S*M + nPf + j } // j in [0, S-N)
	totalVars := S + 2*S*M + 2*nPf

	p := lp.NewProblem(totalVars)

	c := newStageConsts(bs, S)
	cF, cB, cP, w, actIn, actOut := c.cF, c.cB, c.cP, c.w, c.actIn, c.actOut
	lo, hi := c.blockBounds(params, bs)
	if lo == nil {
		return nil
	}
	for j := 0; j < S; j++ {
		p.SetBounds(nVarAt(j), lo[j], hi[j])
	}

	// Total blocks.
	sum := make([]lp.Term, S)
	for j := 0; j < S; j++ {
		sum[j] = lp.Term{Var: nVarAt(j), Coeff: 1}
	}
	p.AddConstraint(sum, lp.EQ, float64(bs.blocks))

	// Forward pipeline-order constraints.
	for j := 0; j < S; j++ {
		for m := 0; m < M; m++ {
			if m > 0 { // (10): serial microbatches per stage
				p.AddConstraint([]lp.Term{
					{Var: tfAt(j, m), Coeff: 1},
					{Var: tfAt(j, m-1), Coeff: -1},
					{Var: nVarAt(j), Coeff: -bs.tfBlk},
				}, lp.GE, cF[j])
			}
			if j > 0 { // (8): activation arrival from upstream
				p.AddConstraint([]lp.Term{
					{Var: tfAt(j, m), Coeff: 1},
					{Var: tfAt(j-1, m), Coeff: -1},
					{Var: nVarAt(j - 1), Coeff: -bs.tfBlk},
				}, lp.GE, cF[j-1]+lat+actIn[j]/B)
			}
		}
		if j < N { // initial upload before the first microbatch
			p.AddConstraint([]lp.Term{
				{Var: tfAt(j, 0), Coeff: 1},
				{Var: nVarAt(j), Coeff: -bs.pBlk / B},
			}, lp.GE, lat+cP[j]/B)
		} else {
			// (9): swap-in after the previous stage on this GPU, minus
			// whatever was prefetched.
			p.AddConstraint([]lp.Term{
				{Var: tfAt(j, 0), Coeff: 1},
				{Var: tfAt(j-N, M-1), Coeff: -1},
				{Var: nVarAt(j - N), Coeff: -bs.tfBlk},
				{Var: nVarAt(j), Coeff: -bs.pBlk / B},
				{Var: pfAt(j), Coeff: 1 / B},
			}, lp.GE, cF[j-N]+lat+cP[j]/B)
			// (5): prefetch fits in reserved memory.
			p.AddConstraint([]lp.Term{
				{Var: pfAt(j), Coeff: 1},
				{Var: nVarAt(j - N), Coeff: bs.pBlk},
			}, lp.LE, G-cP[j-N]-w[j-N]-2*actOut[j-N])
			// (6): prefetch bounded by the overlap window and stage size.
			p.AddConstraint([]lp.Term{
				{Var: pfAt(j), Coeff: 1},
				{Var: nVarAt(j - N), Coeff: -B * bs.tfBlk},
				{Var: tfAt(j-N, M-1), Coeff: -B},
				{Var: tfAt(j-N, 0), Coeff: B},
			}, lp.LE, B*cF[j-N])
			p.AddConstraint([]lp.Term{
				{Var: pfAt(j), Coeff: 1},
				{Var: nVarAt(j), Coeff: -bs.pBlk},
			}, lp.LE, cP[j])
		}
	}

	// (11): backward begins after the last stage's forward drains.
	p.AddConstraint([]lp.Term{
		{Var: tbAt(S-1, 0), Coeff: 1},
		{Var: tfAt(S-1, M-1), Coeff: -1},
		{Var: nVarAt(S - 1), Coeff: -bs.tfBlk},
	}, lp.GE, cF[S-1])

	// Backward pipeline-order constraints.
	for j := S - 1; j >= 0; j-- {
		for m := 0; m < M; m++ {
			if m > 0 { // (10b)
				p.AddConstraint([]lp.Term{
					{Var: tbAt(j, m), Coeff: 1},
					{Var: tbAt(j, m-1), Coeff: -1},
					{Var: nVarAt(j), Coeff: -bs.tbBlk},
				}, lp.GE, cB[j])
			}
			if j < S-1 { // (8b): activation-gradient arrival
				p.AddConstraint([]lp.Term{
					{Var: tbAt(j, m), Coeff: 1},
					{Var: tbAt(j+1, m), Coeff: -1},
					{Var: nVarAt(j + 1), Coeff: -bs.tbBlk},
				}, lp.GE, cB[j+1]+lat+actOut[j]/B)
			}
		}
		if j < S-N {
			// (9b): swap-in for backward. UploadBwd = params + M*actIn.
			p.AddConstraint([]lp.Term{
				{Var: tbAt(j, 0), Coeff: 1},
				{Var: tbAt(j+N, M-1), Coeff: -1},
				{Var: nVarAt(j + N), Coeff: -bs.tbBlk},
				{Var: nVarAt(j), Coeff: -bs.pBlk / B},
				{Var: pbAt(j), Coeff: 1 / B},
			}, lp.GE, cB[j+N]+lat+(cP[j]+float64(M)*actIn[j])/B)
			// (5b): prefetch fits beside the currently executing stage.
			p.AddConstraint([]lp.Term{
				{Var: pbAt(j), Coeff: 1},
				{Var: nVarAt(j + N), Coeff: 2 * bs.pBlk},
			}, lp.LE, G-2*cP[j+N]-w[j+N]-2*actIn[j+N])
			// (6b): overlap window and stage size.
			p.AddConstraint([]lp.Term{
				{Var: pbAt(j), Coeff: 1},
				{Var: nVarAt(j + N), Coeff: -B * bs.tbBlk},
				{Var: tbAt(j+N, M-1), Coeff: -B},
				{Var: tbAt(j+N, 0), Coeff: B},
			}, lp.LE, B*cB[j+N])
			p.AddConstraint([]lp.Term{
				{Var: pbAt(j), Coeff: 1},
				{Var: nVarAt(j), Coeff: -bs.pBlk},
			}, lp.LE, cP[j]+float64(M)*actIn[j])
		}
	}

	// Objective (3): minimize tb_{0,M-1} + Tb_0.
	p.SetObjectiveCoeff(tbAt(0, M-1), 1)
	p.SetObjectiveCoeff(nVarAt(0), bs.tbBlk)
	return p
}
