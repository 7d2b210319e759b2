//go:build !amd64

package lp

// axpyNeg does y[i] -= x[i]*p for i < len(y). len(x) must be at least
// len(y).
func axpyNeg(y, x []float64, p float64) { axpyNegGo(y, x, p) }
