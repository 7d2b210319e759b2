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

// eager returns mip with the sweep resolving no candidate by a bound:
// it solves the MILP of every candidate the patience rule reaches, in
// order, as the sweep did before it was lazy.
func eager(mip func(Params, MIPOptions) (*Partition, *MIPStats, error)) func(Params, MIPOptions) (*Partition, *MIPStats, error) {
	return func(params Params, opts MIPOptions) (*Partition, *MIPStats, error) {
		defer func() { lazy = true }()
		lazy = false
		return mip(params, opts)
	}
}

// resolvedBy returns the tried stage counts the sweep resolved by r.
func (s *MIPStats) resolvedBy(r Resolution) []int {
	var out []int
	for i, how := range s.Resolutions {
		if how == r {
			out = append(out, s.TriedStageCounts[i])
		}
	}
	return out
}
