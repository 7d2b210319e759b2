package sim

import (
	"os"
	"testing"
)

// TestIncrementalBeatsOracle is the `make check-perf` smoke gate: a short
// in-process benchmark of the contention workload under both scheduler
// modes, asserting the incremental component-local path is still
// meaningfully faster than (and allocates no more than) the global
// recompute oracle. It guards against regressions that would silently
// turn the incremental scheduler back into a global one — a recompute
// path that marks everything dirty, a heap that degenerates, a dropped
// pool — without depending on absolute machine speed.
//
// Gated behind MOBIUS_CHECK_PERF so the ordinary test run stays fast; the
// threshold (1.5x) is far below the steady-state speedup (see
// BENCH_sim.json) to keep the gate robust on loaded CI machines.
func TestIncrementalBeatsOracle(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_PERF") == "" {
		t.Skip("set MOBIUS_CHECK_PERF=1 (or run `make check-perf`) to run the performance smoke gate")
	}
	run := func(oracle bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				s.rateOracle = oracle
				buildChurn(s, 8, 32, 8)
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	inc := run(false)
	ora := run(true)
	t.Logf("incremental: %d ns/op, %d allocs/op", inc.NsPerOp(), inc.AllocsPerOp())
	t.Logf("oracle:      %d ns/op, %d allocs/op", ora.NsPerOp(), ora.AllocsPerOp())

	if inc.NsPerOp()*3 > ora.NsPerOp()*2 {
		t.Errorf("incremental scheduler no longer beats the global oracle by 1.5x: %d ns/op vs %d ns/op",
			inc.NsPerOp(), ora.NsPerOp())
	}
	// Constant slack: the incremental path grows a few scratch slices the
	// oracle never touches (dirty-component collection); what the gate
	// rejects is per-event allocation, which scales far past this.
	if inc.AllocsPerOp() > ora.AllocsPerOp()+16 {
		t.Errorf("incremental scheduler allocates more than the oracle: %d vs %d allocs/op",
			inc.AllocsPerOp(), ora.AllocsPerOp())
	}
}

// TestSteadyStateAllocFree is the second `make check-perf` gate: the
// 1024-flow contention workload in the steady-state shape (topology built
// once, every iteration replayed through Reset+Run) must stay
// allocation-free. A small constant slack keeps the gate robust against
// runtime noise without letting per-event allocation creep back in.
func TestSteadyStateAllocFree(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_PERF") == "" {
		t.Skip("set MOBIUS_CHECK_PERF=1 (or run `make check-perf`) to run the performance smoke gate")
	}
	res := testing.Benchmark(func(b *testing.B) {
		benchSteady(b, 8, 128, 8) // 1024 concurrent flows
	})
	t.Logf("steady: %d ns/op, %d allocs/op", res.NsPerOp(), res.AllocsPerOp())
	if res.AllocsPerOp() > 8 {
		t.Errorf("steady state is no longer allocation-free: %d allocs/op", res.AllocsPerOp())
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
// building the 10k-flow synthetic topology through the streaming Builder
// must allocate at least 5x less than the pre-PR construction path did,
// and must stay under an absolute ceiling so the slab allocators cannot
// quietly erode. (The in-tree variadic constructors now share the slab
// and interning wins — buildSyntheticNaive exists for the bitwise
// equivalence test, not as the baseline here.)
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
	t.Logf("stream builder: %d ns/op, %d allocs/op, %d B/op (pre-PR: %d allocs/op)",
		stream.NsPerOp(), stream.AllocsPerOp(), stream.AllocedBytesPerOp(), int64(prePRConstructAllocs))

	if stream.AllocsPerOp()*5 > prePRConstructAllocs {
		t.Errorf("streaming construction no longer ≥5x leaner than the pre-PR builder: %d vs %d allocs/op",
			stream.AllocsPerOp(), int64(prePRConstructAllocs))
	}
	// Absolute ceiling at 10k flows: ~0.14 allocs/flow of slab chunks,
	// path interning, and registry growth (measured ~1.4k; EXPERIMENTS.md).
	if stream.AllocsPerOp() > 2000 {
		t.Errorf("streaming construction allocates beyond the 10k-flow ceiling: %d allocs/op > 2000",
			stream.AllocsPerOp())
	}
}
