package lp

func init() {
	if hasAVX2() {
		axpyNeg = axpyNegAVX2
	}
}

// axpyNegAVX2 does y[i] -= x[i]*p for i < len(y) with AVX2 (VMULPD then
// VSUBPD, no FMA), four elements per instruction: the same two roundings
// per element as axpyNegGo. len(x) must be at least len(y). Call it only
// where hasAVX2 reports true.
//
//go:noescape
func axpyNegAVX2(y, x []float64, p float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 1 ECX must show OSXSAVE
// (bit 27) and AVX (bit 28), XCR0 must enable the SSE and AVX state
// (bits 1 and 2), and CPUID leaf 7 EBX must show AVX2 (bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
