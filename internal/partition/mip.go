package partition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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
// Callers degrade to the deterministic Greedy fallback instead.
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
	// Parallelism is the number of candidate stage counts searched
	// concurrently (0 means GOMAXPROCS, 1 means a serial sweep after a
	// two-wide root phase). Before any branch and bound the sweep solves
	// every candidate's root relaxation, two at a time; each MILP then
	// solves the two child LPs of every node on a second goroutine, so a
	// sweep may use up to 2 × Parallelism cores. The sweep result is
	// identical at every level: roots and candidate solves are
	// independent, the shared incumbent bound is sealed before the
	// fan-out, and results are replayed in candidate order.
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
	// TriedStageCounts lists the candidate S values the sweep resolved,
	// by a MILP or by the root bound, in sweep order.
	TriedStageCounts []int
	// PrunedStageCounts lists the candidates among them that the root
	// bound resolved with no LP (see rootBound).
	PrunedStageCounts []int `json:"-"`
	// Nodes is the total branch-and-bound node count across candidates.
	Nodes int
	// LPSolves and LPPivots total the LP relaxations solved across
	// candidates and their simplex pivots.
	LPSolves, LPPivots int
	// LPRows and LPCols size the largest LP solved (by rows × columns),
	// as simplex tableau rows and columns.
	LPRows, LPCols int
	// LPNumerical counts the LPs stopped on a numerical breakdown; a
	// candidate whose root broke down falls back to the balanced
	// partition, as a limit-bound one does.
	LPNumerical int
	// SolveTime is the time spent in the MILP solver, summed over
	// candidates: each one's root relaxation plus its search. Roots are
	// solved two at a time, so the sum can exceed wall-clock time even
	// when Parallelism is 1.
	SolveTime time.Duration
	// BestStageCount is the S of the returned partition.
	BestStageCount int
	// StepTime is the modelled step duration of the returned partition.
	StepTime float64
	// Proven is true when every explored candidate was solved to
	// certified optimality or resolved by the root bound.
	Proven bool
	// UsedMinStageFallback is true when the min-stage partition (beyond
	// MaxStages) beat every MIP candidate — the regime of Figure 9's
	// second observation.
	UsedMinStageFallback bool
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
		return nil, nil, fmt.Errorf("%w: %v", ErrCancelled, err)
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
		part, stats, err := mipSolve(ctx, params, opts)
		if errors.Is(err, ErrCancelled) {
			return part, stats, err // a timed-out sweep is not a reusable result
		}
		mipCacheMu.Lock()
		mipCache[key] = mipCacheEntry{part, stats, err}
		mipCacheMu.Unlock()
		return part, stats, err
	}
	return mipSolve(ctx, params, opts)
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

func mipSolve(ctx context.Context, params Params, opts MIPOptions) (*Partition, *MIPStats, error) {
	bs, err := gatherBlockStats(params)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults(bs.blocks)

	stats := &MIPStats{Proven: true, StepTime: Infeasible}
	var best *Partition

	consider := func(p *Partition, s int, fromMIP bool) error {
		t, err := StepTime(params, p)
		if err != nil {
			return err
		}
		if t < stats.StepTime {
			stats.StepTime = t
			stats.BestStageCount = s
			stats.UsedMinStageFallback = !fromMIP
			best = p
			best.Algorithm = AlgoMIP
		}
		return nil
	}

	cands := stageCounts(params, bs.blocks, opts.MaxStages)

	// The min-stage decomposition can exceed MaxStages (one block per
	// stage); the paper observes the MIP solution degenerates to it when
	// blocks barely fit in GPU memory. It is compared after the sweep.
	ms, err := MinStage(params)
	if err != nil || len(ms.Stages) <= opts.MaxStages {
		ms = nil
	}

	// Whatever a candidate's MILP returns is a block-count vector with S
	// stages or its balanced fallback, whose step time is at least the
	// root bound plus tbEmb. When min-stage beats that strictly for every
	// candidate, it wins the comparison below whatever the MILPs return:
	// the sweep is resolved without formulating anything. A candidate the
	// bound finds no partition for is one formulate rejects too.
	if ms != nil {
		tMS, err := StepTime(params, ms)
		if err != nil {
			return nil, nil, err
		}
		var pruned []int
		for _, s := range cands {
			lb, ok := pruneBound(params, bs, s)
			if !ok {
				continue
			}
			if !(lb+bs.tbEmb > tMS) {
				pruned = nil
				break
			}
			pruned = append(pruned, s)
		}
		if pruned != nil {
			stats.TriedStageCounts, stats.PrunedStageCounts = cands, pruned
		}
	}
	if stats.PrunedStageCounts == nil {
		if err := sweep(ctx, params, bs, opts, cands, stats, consider); err != nil {
			return nil, nil, err
		}
	}

	if ms != nil {
		if err := consider(ms, len(ms.Stages), false); err != nil {
			return nil, nil, err
		}
	}

	// A deadline that expired mid-sweep invalidates the whole result, even
	// if some candidates finished: which ones did is timing-dependent, and
	// the contract is all-or-nothing (see ErrCancelled).
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCancelled, err)
	}

	if best == nil {
		return nil, nil, fmt.Errorf("partition: no feasible partition found (GPU memory %g GB too small?)", params.GPUMem/1e9)
	}
	return best, stats, nil
}

// pruneBound is the root bound the sweep is resolved by. Only tests
// replace it, with one that proves nothing, so that every candidate
// with a partition runs its MILP.
var pruneBound = rootBound

// sweep solves the MILP of every candidate stage count in cands and
// hands the results to consider in candidate order, with the patience
// stop, adding their effort to stats.
func sweep(ctx context.Context, params Params, bs *blockStats, opts MIPOptions, cands []int, stats *MIPStats, consider func(*Partition, int, bool) error) error {
	// Balanced-heuristic partitions for every candidate, computed before
	// the fan-out; each is its candidate's fallback and seeds the shared
	// incumbent bound. The bound is sealed at the minimum over all seeds:
	// every solve prunes against the same value no matter when it starts,
	// so the sweep result is identical at every parallelism level
	// (mid-flight tightening would make pruning timing-dependent).
	balanced := make([]*Partition, len(cands))
	bound := math.Inf(1)
	for i, s := range cands {
		b, err := Balanced(params, s)
		if err != nil {
			continue
		}
		balanced[i] = b
		if t, err := StepTime(params, b); err == nil && !math.IsInf(t, 1) {
			// Seed with slack: the analytic evaluator and the LP agree on
			// the model, but the seed must never over-prune the optimum.
			if inc := (t - bs.tbEmb) * 1.001; inc < bound {
				bound = inc
			}
		}
	}

	// Every candidate is formulated before the root phase below; a nil
	// problem is an S for which a single block cannot fit some stage.
	probs := make([]*lp.Problem, len(cands))
	for i, s := range cands {
		probs[i] = formulate(params, bs, s)
	}

	type solveRes struct {
		part   *Partition
		effort *milp.Result
		dur    time.Duration
		err    error
	}
	results := make([]chan solveRes, len(cands))
	for i := range results {
		results[i] = make(chan solveRes, 1)
	}

	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(cands) {
		par = len(cands)
	}
	if par < 1 {
		par = 1
	}

	// abort is polled by the root phase's two LPs and then by every
	// worker's LPs, up to two at a time per MILP (a node's sibling LPs
	// run concurrently); an atomic load and ctx.Err are safe for that.
	var cancelled atomic.Bool
	abort := func() bool { return cancelled.Load() || ctx.Err() != nil }

	// The root phase solves every candidate's root relaxation before any
	// branch and bound, two at a time, so that the second core is busy
	// during the roots too. It runs in the first worker's scratch, whose
	// two LP workspaces that worker's searches then reuse: no tableau
	// memory is added. The roots of candidates a patience stop skips
	// are solved but never counted.
	first := milp.NewScratch()
	roots := solveRoots(probs, first, abort)

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Solver scratch is pooled per worker: every candidate this
			// worker solves reuses one tableau and one LP clone.
			sc := first
			if w > 0 {
				sc = milp.NewScratch()
			}
			for i := range work {
				if abort() {
					results[i] <- solveRes{} // discarded by the replay
					continue
				}
				start := time.Now()
				part, res, err := solveOne(params, bs, cands[i], probs[i], roots[i], opts, bound, balanced[i], abort, sc)
				results[i] <- solveRes{part: part, effort: res, dur: roots[i].dur + time.Since(start), err: err}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range cands {
			work <- i
		}
		close(work)
	}()
	// All exit paths join the pool: workers poll abort between nodes, so a
	// cancelled sweep shuts down promptly and leaks nothing (the replay
	// below sets cancelled before every early return).
	defer wg.Wait()

	// Replay completed solves in candidate order, applying the serial
	// patience rule, so both the chosen partition and the reported stats
	// are independent of completion timing. Once the sweep outcome is
	// sealed, in-flight and unstarted solves are cancelled; their results
	// would be discarded anyway.
	sinceImprove := 0
	for i := range cands {
		r := <-results[i]
		if r.err != nil {
			cancelled.Store(true)
			return r.err
		}
		stats.SolveTime += r.dur
		stats.addEffort(r.effort)
		stats.TriedStageCounts = append(stats.TriedStageCounts, cands[i])
		if r.part == nil {
			continue // infeasible for this S
		}
		before := stats.StepTime
		if err := consider(r.part, cands[i], true); err != nil {
			cancelled.Store(true)
			return err
		}
		if stats.StepTime < before {
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove >= mipPatience {
				cancelled.Store(true)
				break
			}
		}
	}
	return nil
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
