//go:build !amd64

package lp

import "runtime"

// avx2Kernel returns the AVX2 column update, or why this host cannot run
// it.
func avx2Kernel() (func(y, x []float64, p float64), string) {
	return nil, "no AVX2 kernel on " + runtime.GOARCH
}
