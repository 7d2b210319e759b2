package sim

import (
	"os"
	"testing"
)

// TestEventLoopAllocFree is a `make check-perf` gate: the event
// loop allocates nothing per event. Each contention workload is built
// fresh outside the measurement (benchRun) and only Run is counted; what
// Run allocates is the growth of its reused buffers (finished list, flow
// slab, heaps, worklists), logarithmic in the flow count. Going from 64
// to 1024 concurrent flows adds 7,680 transfers, each one admission and
// one completion; the gate allows Run one extra allocation per 16 of
// them, where one allocation per event would add thousands.
func TestEventLoopAllocFree(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_PERF") == "" {
		t.Skip("set MOBIUS_CHECK_PERF=1 (or run `make check-perf`) to run the performance smoke gate")
	}
	const groups, chain = 8, 8
	allocs := func(streams int) int64 {
		res := testing.Benchmark(func(b *testing.B) { benchRun(b, groups, streams, chain) })
		t.Logf("flows=%d run: %d ns/op, %d allocs/op", groups*streams, res.NsPerOp(), res.AllocsPerOp())
		return res.AllocsPerOp()
	}
	small, large := allocs(8), allocs(128)
	added := int64(groups * (128 - 8) * chain)
	if (large-small)*16 > added {
		t.Errorf("Run allocates per event: %d allocs/op at 64 flows, %d at 1024 (%d more for %d more transfers)",
			small, large, large-small, added)
	}
}

// prePRConstructAllocs is the measured allocation cost of building the
// 10k-flow synthetic topology with the pre-streaming construction path
// (seed-commit code: per-call Path slices, append-grown successor lists;
// measured in a worktree at that commit). Allocation counts are
// deterministic, so the constant is portable across machines; it anchors
// the ≥5x reduction the streaming builder must preserve.
const prePRConstructAllocs = 22924

// TestStreamConstructLean is the construction gate in `make check-perf`:
// building the 10k-flow synthetic topology through the task constructors
// must allocate at least 5x less than the pre-PR construction path did,
// and must stay under an absolute ceiling so the slab allocators cannot
// quietly erode. The variadic dependency lists do not escape, so they
// cost no allocation.
func TestStreamConstructLean(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_PERF") == "" {
		t.Skip("set MOBIUS_CHECK_PERF=1 (or run `make check-perf`) to run the performance smoke gate")
	}
	spec := SyntheticSpec{Flows: 10000}
	stream := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New()
			BuildSynthetic(s, spec)
		}
	})
	t.Logf("construction: %d ns/op, %d allocs/op, %d B/op (pre-PR: %d allocs/op)",
		stream.NsPerOp(), stream.AllocsPerOp(), stream.AllocedBytesPerOp(), int64(prePRConstructAllocs))

	if stream.AllocsPerOp()*5 > prePRConstructAllocs {
		t.Errorf("streaming construction no longer ≥5x leaner than the pre-PR builder: %d vs %d allocs/op",
			stream.AllocsPerOp(), int64(prePRConstructAllocs))
	}
	// Absolute ceiling at 10k flows: slab chunks and registry growth, each
	// island's four paths registered once into the path slab (measured
	// 167; 1,379 when every path was its own slice; EXPERIMENTS.md).
	if stream.AllocsPerOp() > 2000 {
		t.Errorf("streaming construction allocates beyond the 10k-flow ceiling: %d allocs/op > 2000",
			stream.AllocsPerOp())
	}
}
