package partition

import (
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
