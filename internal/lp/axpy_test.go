package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestAxpyNegMatchesGo holds the AVX2 kernel and the dispatched axpyNeg
// to the Go loop bit for bit (NaN compared as NaN) over every length
// through one and more sixteen-element bodies and the scalar tail, at
// unaligned offsets, on special values and on random magnitudes from
// 1e-300 to 1e300. Where the host has no AVX2 the AVX2 kernel is skipped
// and axpyNeg is the Go loop itself.
func TestAxpyNegMatchesGo(t *testing.T) {
	type kernel struct {
		name string
		f    func(y, x []float64, p float64)
	}
	kernels := []kernel{{"dispatched", axpyNeg}}
	if avx2, why := avx2Kernel(); avx2 != nil {
		kernels = append(kernels, kernel{"avx2", avx2})
	} else {
		t.Logf("skipping the AVX2 kernel: %s", why)
	}
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.NaN(), 1, -1.5,
	}
	r := rand.New(rand.NewSource(1))
	random := func() float64 {
		if r.Intn(3) == 0 {
			return specials[r.Intn(len(specials))]
		}
		v := math.Pow(10, -300+600*r.Float64())
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for n := 0; n <= 70; n++ {
		for off := 0; off <= 3; off++ {
			for trial := 0; trial < 20; trial++ {
				x := make([]float64, off+n)
				y0 := make([]float64, off+n)
				for i := range x {
					x[i], y0[i] = random(), random()
				}
				p := random()
				if trial < len(specials) {
					p = specials[trial]
				}
				want := append([]float64(nil), y0...)
				axpyNegGo(want[off:], x[off:], p)
				for _, k := range kernels {
					y := append([]float64(nil), y0...)
					k.f(y[off:], x[off:], p)
					for i := range y {
						if !same(y[i], want[i]) {
							t.Fatalf("%s n=%d off=%d p=%v: y[%d] = %v (%#x), Go loop %v (%#x)",
								k.name, n, off, p, i, y[i], math.Float64bits(y[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkAxpyNeg times one column update at the row counts of the
// largest plan-cold tableau (518) and the 51B on Topo 4+4 root (866),
// for the AVX2 kernel, where the host has one, and the Go loop.
func BenchmarkAxpyNeg(b *testing.B) {
	avx2, why := avx2Kernel()
	for _, m := range []int{518, 866} {
		x, y := make([]float64, m), make([]float64, m)
		for i := range x {
			x[i], y[i] = float64(i%7)-3, float64(i)
		}
		for _, k := range []struct {
			name string
			f    func(y, x []float64, p float64)
		}{{"avx2", avx2}, {"go", axpyNegGo}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, k.name), func(b *testing.B) {
				if k.f == nil {
					b.Skip(why)
				}
				b.SetBytes(int64(16 * m))
				for i := 0; i < b.N; i++ {
					k.f(y, x, 0x1p-40)
				}
			})
		}
	}
}
