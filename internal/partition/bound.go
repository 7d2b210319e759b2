package partition

import (
	"math"
	"slices"
)

// stageConsts holds the per-stage constants of the §3.2 program for a
// fixed stage count S: the costs beyond a stage's blocks (the embedding
// on stage 0, the head on stage S-1), its working set and its boundary
// activations, in the units of blockStats.
type stageConsts struct {
	cF, cB, cP    []float64 // seconds, seconds, GB
	w             []float64 // GB
	actIn, actOut []float64 // GB
}

func newStageConsts(bs *blockStats, S int) stageConsts {
	c := stageConsts{
		cF:     make([]float64, S),
		cB:     make([]float64, S),
		cP:     make([]float64, S),
		w:      make([]float64, S),
		actIn:  make([]float64, S),
		actOut: make([]float64, S),
	}
	for j := 0; j < S; j++ {
		c.w[j] = bs.wBlk
		c.actIn[j] = bs.act
		c.actOut[j] = bs.act
	}
	c.cF[0] += bs.tfEmb
	c.cB[0] += bs.tbEmb
	c.cP[0] += bs.pEmb
	c.w[0] = math.Max(c.w[0], bs.wEmb)
	c.cF[S-1] += bs.tfHead
	c.cB[S-1] += bs.tbHead
	c.cP[S-1] += bs.pHead
	c.w[S-1] = math.Max(c.w[S-1], bs.wHead)
	c.actIn[0] = 0    // stage 0 receives raw token ids (negligible)
	c.actOut[S-1] = 0 // the head emits only the loss
	return c
}

// blockBounds returns the integer bounds on each stage's block count
// that the memory constraint (4) implies:
//
//	MemFwd_j = pBlk*n + cP + w + 2*actOut <= G
//	MemBwd_j = 2*(pBlk*n + cP) + w + 2*actIn <= G.
//
// Edge stages may hold no block (the embedding or the head alone is a
// valid stage); interior stages hold at least one. It returns nil slices
// when a single block cannot fit some stage: no partition has S stages.
func (c stageConsts) blockBounds(params Params, bs *blockStats) (lo, hi []float64) {
	G := params.GPUMem * 1e-9 // GB
	S := len(c.cF)
	lo, hi = make([]float64, S), make([]float64, S)
	for j := 0; j < S; j++ {
		capFwd := (G - c.cP[j] - c.w[j] - 2*c.actOut[j]) / bs.pBlk
		capBwd := (G - 2*c.cP[j] - c.w[j] - 2*c.actIn[j]) / (2 * bs.pBlk)
		hi[j] = math.Floor(math.Min(capFwd, capBwd) + 1e-9)
		lo[j] = 1
		if j == 0 || j == S-1 {
			lo[j] = 0
		}
		if hi[j] < lo[j] {
			return nil, nil
		}
	}
	return lo, hi
}

// boundSlack shrinks the root bound relative to its value, so that the
// rounding of its sums never puts it above a step time it bounds.
const boundSlack = 1e-9

// rootBound returns LB(S), a lower bound on StepTime − tbEmb (the MILP's
// objective) over every block-count vector with S stages that honours
// blockBounds' lower bounds; ok is false when blockBounds rejects S. Each
// term below is a chain of the evaluator's pipeline-order constraints
// (8)-(11), with every swap-in upload and prefetch dropped, so it bounds
// the evaluator and the MILP alike. It is the larger of two relaxations:
//
//   - (a) the chain bound. For any stage k, microbatch 0 runs forward
//     from stage 0 to k, k runs its M-1 further forwards, microbatch M-1
//     runs on to stage S-1, and the backward pass retraces that path.
//     Every stage's forward and backward then count once, stage k's M
//     times, and each of the S-1 boundaries is crossed twice at
//     hop = L + act/B. The stage k a partition loads most gives
//     L + pEmb/B + Σ(F+B) − tbEmb + 2(S−1)·hop + (M−1)·max_k(F_k+B_k),
//     and the least such maximum over partitions is what dealing the
//     blocks one at a time to the least-loaded stage reaches.
//   - (b) the per-GPU load bound. GPU g runs its stages g, g+N, ... one
//     after another, M microbatches each, first forward and then
//     backward, with a swap latency L between stages. Its path starts
//     with the chain from stage 0 to stage g, and runs from its last
//     stage to stage S-1 and back, and from stage g down to stage 0, so
//     stages outside [g, last] count once. Each block beyond the lower
//     bounds adds M·(tf+tb) to its GPU and, dropping what it adds to the
//     other GPUs' chains, dealing them one at a time to the least-loaded
//     GPU gives the least maximum.
//
// The result is shrunk by boundSlack.
func rootBound(params Params, bs *blockStats, S int) (lb float64, ok bool) {
	c := newStageConsts(bs, S)
	lo, _ := c.blockBounds(params, bs)
	if lo == nil {
		return 0, false
	}
	N, M := params.NumGPUs, float64(params.Microbatches)
	B := params.Bandwidth * 1e-9 // GB/s
	L := params.Latency
	hop := L + bs.act/B
	blk := bs.tfBlk + bs.tbBlk

	// load[j] is stage j's F+B at its lower bound; left the blocks beyond.
	load := make([]float64, S)
	sum := float64(bs.blocks) * blk
	left := bs.blocks
	for j := range load {
		load[j] = c.cF[j] + c.cB[j] + lo[j]*blk
		sum += c.cF[j] + c.cB[j]
		left -= int(lo[j])
	}
	start := L + bs.pEmb/B - bs.tbEmb

	// (a): deal the remaining blocks to the least-loaded stage.
	stage := append([]float64(nil), load...)
	deal(stage, left, blk)
	chain := start + sum + 2*float64(S-1)*hop + (M-1)*slices.Max(stage)

	// (b): the same with per-GPU loads, each block adding M·(tf+tb).
	gpus := make([]float64, min(N, S))
	for g := range gpus {
		last := g + (S-1-g)/N*N
		t := start + 2*float64(g+S-1-last)*hop + 2*float64((last-g)/N)*L
		for j := 0; j < S; j++ {
			switch {
			case j < g || j > last:
				t += load[j]
			case (j-g)%N == 0:
				t += M * load[j]
			}
		}
		gpus[g] = t
	}
	deal(gpus, left, M*blk)

	return math.Max(chain, slices.Max(gpus)) * (1 - boundSlack), true
}

// deal adds step to the least entry of loads, n times: the least
// maximum over every way of adding n steps.
func deal(loads []float64, n int, step float64) {
	for ; n > 0; n-- {
		k := 0
		for j, v := range loads {
			if v < loads[k] {
				k = j
			}
		}
		loads[k] += step
	}
}
