package lp

// axpyNeg does y[i] -= x[i]*p for i < len(y) with SSE2 (MULPD then
// SUBPD, no FMA), two elements per instruction: the same two roundings
// per element as axpyNegGo. len(x) must be at least len(y).
//
//go:noescape
func axpyNeg(y, x []float64, p float64)
