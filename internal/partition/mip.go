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
	// Patience stops the sweep over S after this many consecutive
	// non-improving candidates (default 2).
	Patience int
	// NodeLimit and TimeLimit bound each MILP solve.
	NodeLimit int
	TimeLimit time.Duration
	// Parallelism is the number of candidate stage counts solved
	// concurrently (0 means GOMAXPROCS, 1 means serial). The sweep result
	// is identical at every level: candidate solves are independent, the
	// shared incumbent bound is sealed before the fan-out, and results are
	// replayed in candidate order.
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
	if o.Patience <= 0 {
		o.Patience = 2
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

// MIPStats reports the solver effort, feeding the Figure 12 overhead
// experiment.
type MIPStats struct {
	// TriedStageCounts lists the candidate S values formulated and solved.
	TriedStageCounts []int
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
	// SolveTime is the cumulative time spent in the MILP solver, summed
	// over candidate solves (equals wall-clock when Parallelism is 1).
	SolveTime time.Duration
	// BestStageCount is the S of the returned partition.
	BestStageCount int
	// StepTime is the modelled step duration of the returned partition.
	StepTime float64
	// Proven is true when every explored candidate was solved to
	// certified optimality.
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

	maxB := maxLayersPerStage(params)
	var cands []int
	for s := params.NumGPUs; s <= opts.MaxStages; s += params.NumGPUs {
		if s*maxB < bs.blocks {
			continue // cannot fit the model into s stages
		}
		cands = append(cands, s)
	}

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

	var cancelled atomic.Bool
	abort := func() bool { return cancelled.Load() || ctx.Err() != nil }
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Solver scratch is pooled per worker: every candidate this
			// worker solves reuses one tableau and one LP clone.
			sc := milp.NewScratch()
			for i := range work {
				if abort() {
					results[i] <- solveRes{} // discarded by the replay
					continue
				}
				start := time.Now()
				part, res, err := solveOne(params, bs, cands[i], opts, bound, balanced[i], abort, sc)
				results[i] <- solveRes{part: part, effort: res, dur: time.Since(start), err: err}
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
			return nil, nil, r.err
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
			return nil, nil, err
		}
		if stats.StepTime < before {
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove >= opts.Patience {
				cancelled.Store(true)
				break
			}
		}
	}

	// The min-stage decomposition can exceed MaxStages (one block per
	// stage); the paper observes the MIP solution degenerates to it when
	// blocks barely fit in GPU memory. Compare explicitly.
	if ms, err := MinStage(params); err == nil && len(ms.Stages) > opts.MaxStages {
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

// solveOne formulates and solves the MILP for a fixed stage count S.
// It returns a nil partition when the instance is infeasible. The
// incumbent objective (already in the MILP's objective space) and the
// balanced-heuristic fallback partition are computed by the caller so
// they can be shared across concurrent solves; cancel is polled by
// the solver to abandon work whose result the sweep will discard; sc is
// the calling worker's pooled solver scratch. When limits are hit before
// the MILP produces a partition, the balanced fallback — possibly nil —
// stands in. res is the solver's result, for its effort counters; it is
// nil when no solve ran.
func solveOne(params Params, bs *blockStats, S int, opts MIPOptions, incumbent float64, balanced *Partition, cancel func() bool, sc *milp.Scratch) (part *Partition, res *milp.Result, err error) {
	p := formulate(params, bs, S)
	if p == nil {
		// A single block cannot fit some stage: infeasible S.
		return nil, nil, nil
	}
	intVars := make([]int, S)
	for j := 0; j < S; j++ {
		intVars[j] = j
	}
	mopts := milp.Options{MaxNodes: opts.NodeLimit, TimeLimit: opts.TimeLimit, GapTol: mipGapTol, Scratch: sc}
	if !math.IsInf(incumbent, 1) {
		mopts.Incumbent = incumbent
		mopts.IncumbentSet = true
	}
	if cancel != nil {
		mopts.Cancel = cancel
	}

	res, err = milp.Solve(p, intVars, mopts)
	if err != nil {
		return nil, nil, err
	}
	if res.Status != lp.Optimal {
		// Limits hit with no MILP incumbent: fall back to the balanced
		// heuristic so the sweep still has a candidate for this S.
		return balanced, res, nil
	}

	sizes := make([]int, S)
	for j := 0; j < S; j++ {
		sizes[j] = int(math.Round(res.X[j]))
	}
	sizes[0]++   // embedding layer
	sizes[S-1]++ // head layer
	part, err = FromBoundaries(params.Profile, sizes, AlgoMIP)
	if err != nil {
		return nil, res, err
	}
	return part, res, nil
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

	// Per-stage constants (embedding on stage 0, head on stage S-1).
	cF := make([]float64, S)
	cB := make([]float64, S)
	cP := make([]float64, S) // constant parameter GB beyond blocks
	w := make([]float64, S)
	actIn := make([]float64, S)
	actOut := make([]float64, S)
	for j := 0; j < S; j++ {
		w[j] = bs.wBlk
		actIn[j] = bs.act
		actOut[j] = bs.act
	}
	cF[0] += bs.tfEmb
	cB[0] += bs.tbEmb
	cP[0] += bs.pEmb
	w[0] = math.Max(w[0], bs.wEmb)
	cF[S-1] += bs.tfHead
	cB[S-1] += bs.tbHead
	cP[S-1] += bs.pHead
	w[S-1] = math.Max(w[S-1], bs.wHead)
	actIn[0] = 0    // stage 0 receives raw token ids (negligible)
	actOut[S-1] = 0 // the head emits only the loss

	// Integer block-count bounds from the memory constraint (4):
	// MemFwd_j = pBlk*n + cP + w + 2*actOut <= G
	// MemBwd_j = 2*(pBlk*n + cP) + w + 2*actIn <= G.
	for j := 0; j < S; j++ {
		capFwd := (G - cP[j] - w[j] - 2*actOut[j]) / bs.pBlk
		capBwd := (G - 2*cP[j] - w[j] - 2*actIn[j]) / (2 * bs.pBlk)
		hi := math.Floor(math.Min(capFwd, capBwd) + 1e-9)
		lo := 1.0
		if j == 0 || j == S-1 {
			lo = 0 // embedding/head alone is a valid stage
		}
		if hi < lo {
			return nil
		}
		p.SetBounds(nVarAt(j), lo, hi)
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
