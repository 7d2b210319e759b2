package milp

import "mobius/internal/lp"

// solveSerial is Solve in the one-core order: each node's two child LPs
// run one after the other on the calling goroutine and in one
// workspace, side 0 first. It prices integer points with fixedLP.
func solveSerial(p *lp.Problem, intVars []int, opts Options) (*Result, error) {
	defer func(concurrent func(func(side, w int))) { branch = concurrent }(branch)
	branch = func(solve func(side, w int)) {
		solve(0, 0)
		solve(1, 0)
	}
	return Solve(p, intVars, fixedLP(p, intVars), opts)
}
