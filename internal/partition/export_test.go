package partition

import (
	"math"

	"mobius/internal/lp"
	"mobius/internal/milp"
)

// mipInline is MIP in the order before the root phase: the phase solves
// no root, so each MILP solves its own inside milp.Solve.
func mipInline(params Params, opts MIPOptions) (*Partition, *MIPStats, error) {
	defer func(phase func([]*lp.Problem, *milp.Scratch, func() bool) []rootRes) { solveRoots = phase }(solveRoots)
	solveRoots = func(probs []*lp.Problem, _ *milp.Scratch, _ func() bool) []rootRes {
		return make([]rootRes, len(probs))
	}
	return MIP(params, opts)
}

// unpruned returns mip with the root bound proving nothing, so that the
// sweep solves the MILP of every candidate with a partition.
func unpruned(mip func(Params, MIPOptions) (*Partition, *MIPStats, error)) func(Params, MIPOptions) (*Partition, *MIPStats, error) {
	return func(params Params, opts MIPOptions) (*Partition, *MIPStats, error) {
		defer func(b func(Params, *blockStats, int) (float64, bool)) { pruneBound = b }(pruneBound)
		pruneBound = func(params Params, bs *blockStats, S int) (float64, bool) {
			_, ok := rootBound(params, bs, S)
			return math.Inf(-1), ok
		}
		return mip(params, opts)
	}
}
