package lp

// axpyNeg is the column update the sparse kernel runs: axpyNegAVX2 on
// amd64 hosts whose CPU and OS support AVX2, chosen once at package
// init, and axpyNegGo everywhere else. Both give the same bits.
var axpyNeg = axpyNegGo

// axpyNegGo does y[i] -= x[i]*p for i < len(y), rounding the product
// before the subtraction. The explicit conversion keeps compilers that
// fuse a multiply-add from fusing it, so every architecture computes the
// same two roundings as the amd64 kernel.
func axpyNegGo(y, x []float64, p float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] -= float64(x[i] * p)
	}
}
