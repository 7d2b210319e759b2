package lp

// avx2Kernel returns the AVX2 column update, or why this host cannot run
// it.
func avx2Kernel() (func(y, x []float64, p float64), string) {
	if !hasAVX2() {
		return nil, "CPUID reports no AVX2, or the OS does not save the YMM registers"
	}
	return axpyNegAVX2, ""
}
