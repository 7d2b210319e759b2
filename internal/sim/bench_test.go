package sim

import (
	"fmt"
	"testing"
)

// benchFlowSim builds a simulator with a contended flow set resembling a
// Mobius step: nFlows transfers spread over shared root complexes and
// per-GPU links, in several priority classes. The flows are admitted
// directly so rate computation can be driven without running the event
// loop.
func benchFlowSim(nFlows int) *Sim {
	s := New()
	rc := []*Resource{
		s.NewResource("rc0", 13.1e9),
		s.NewResource("rc1", 13.1e9),
	}
	links := make([]*Resource, 8)
	for i := range links {
		links[i] = s.NewResource("link", 26.2e9)
	}
	var tasks []*Task
	for f := 0; f < nFlows; f++ {
		path := Path(links[f%len(links)], rc[f%len(rc)])
		tasks = append(tasks, s.Transfer("t", nil, path, float64(1+f)*1e8, f%4))
	}
	s.begin()
	for _, t := range tasks {
		s.beginFlow(t)
	}
	return s
}

// BenchmarkSimRecomputeRates measures one full max-min fair rate
// recomputation over a contended 64-flow set — the cost the incremental
// scheduler avoids paying per event. Oracle mode forces the whole flow set
// through water-filling, as the pre-incremental scheduler did on every
// event.
func BenchmarkSimRecomputeRates(b *testing.B) {
	s := benchFlowSim(64)
	s.rateOracle = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ratesDirty = true
		s.recomputeRates()
	}
}

// buildChurn constructs the standing churn workload used by the
// contention and sparse benchmarks: `groups` islands of one root complex
// (13.1 GB/s) plus four links (26.2 GB/s), each island carrying `streams`
// chains of `chain` dependent transfers. Every completion admits the next
// transfer in its chain, so the event loop sees constant component churn
// while ~groups×streams flows stay concurrently active. Paths are built
// through the interning constructor, as the hardware layer does.
func buildChurn(s *Sim, groups, streams, chain int) {
	for g := 0; g < groups; g++ {
		rc := s.NewResource("rc", 13.1e9)
		links := make([]*Resource, 4)
		for i := range links {
			links[i] = s.NewResource("link", 26.2e9)
		}
		for st := 0; st < streams; st++ {
			var prev *Task
			for k := 0; k < chain; k++ {
				// The group index staggers the byte pattern so completions
				// across islands land at distinct instants, as they do in
				// any real pipeline; a perfectly symmetric workload would
				// perturb every component at every event and hide the
				// locality the incremental scheduler exploits.
				bytes := float64(1+(g*5+st*7+k)%13) * 64e6
				prev = s.Transfer("t", nil, s.Path(links[st%len(links)], rc), bytes, st%4, prev)
			}
		}
	}
}

// runChurn executes one full churn simulation under the given scheduler
// mode, rebuilding the topology and DAG from scratch (the historical
// whole-run benchmark shape: construction cost included).
func runChurn(b *testing.B, groups, streams, chain int, oracle bool) {
	b.Helper()
	s := New()
	s.rateOracle = oracle
	buildChurn(s, groups, streams, chain)
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchConstruct measures topology and DAG construction alone.
func benchConstruct(b *testing.B, groups, streams, chain int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		buildChurn(s, groups, streams, chain)
		if len(s.tasks) == 0 {
			b.Fatal("no tasks built")
		}
	}
}

// benchSteady measures execution alone: the topology and DAG are built
// once and every iteration replays them through Reset+Run, the shape the
// chaos harness and experiment grids use.
func benchSteady(b *testing.B, groups, streams, chain int) {
	s := New()
	buildChurn(s, groups, streams, chain)
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimContention is the many-flow contention case from the issue:
// shared root complexes with 64..1024 concurrent flows (8 groups ×
// streams/group × 8-deep chains). The incremental scheduler only
// re-waterfills the perturbed island per event, so its per-flow cost stays
// flat while the oracle (global recompute, the pre-incremental behavior)
// grows linearly per event — quadratic in total work. The construct and
// steady sub-benchmarks split the historical build-plus-run shape into
// its construction and execution halves.
func BenchmarkSimContention(b *testing.B) {
	for _, streams := range []int{8, 32, 128} {
		flows := 8 * streams
		b.Run(fmt.Sprintf("flows=%d/construct", flows), func(b *testing.B) {
			benchConstruct(b, 8, streams, 8)
		})
		for _, mode := range []struct {
			name   string
			oracle bool
		}{{"incremental", false}, {"oracle", true}} {
			b.Run(fmt.Sprintf("flows=%d/%s", flows, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runChurn(b, 8, streams, 8, mode.oracle)
				}
			})
		}
		b.Run(fmt.Sprintf("flows=%d/steady", flows), func(b *testing.B) {
			benchSteady(b, 8, streams, 8)
		})
	}
}

// BenchmarkSimSparse is the sparse many-NVLink case: hundreds of
// single-stream islands (a point-to-point NVLink mesh), where almost every
// event perturbs a one-flow component. This is the best case for
// component-local recomputation and the worst for a global sweep. With
// only 8 transfers per island the historical whole-run shape is dominated
// by construction; the construct/steady split reports the two costs
// separately.
func BenchmarkSimSparse(b *testing.B) {
	for _, groups := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("links=%d/construct", groups), func(b *testing.B) {
			benchConstruct(b, groups, 1, 8)
		})
		for _, mode := range []struct {
			name   string
			oracle bool
		}{{"incremental", false}, {"oracle", true}} {
			b.Run(fmt.Sprintf("links=%d/%s", groups, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runChurn(b, groups, 1, 8, mode.oracle)
				}
			})
		}
		b.Run(fmt.Sprintf("links=%d/steady", groups), func(b *testing.B) {
			benchSteady(b, groups, 1, 8)
		})
	}
}
