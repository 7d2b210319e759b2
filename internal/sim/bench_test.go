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
	// Link i always pairs with root complex i%2, so each link has one path.
	paths := make([]PathID, len(links))
	for i, l := range links {
		paths[i] = s.NewPath(l, rc[i%len(rc)])
	}
	var tasks []*Task
	name := s.Name("t")
	for f := 0; f < nFlows; f++ {
		tasks = append(tasks, s.Transfer(name, nil, paths[f%len(links)], float64(1+f)*1e8, f%4))
	}
	for _, t := range tasks {
		s.beginFlow(t)
	}
	return s
}

// BenchmarkSimRecomputeRates measures one full max-min fair rate
// recomputation over a contended 64-flow set, the water-fill an event
// pays whenever it changes the flow set or a capacity.
func BenchmarkSimRecomputeRates(b *testing.B) {
	s := benchFlowSim(64)
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
// transfer in its chain, so the event loop sees constant churn while
// ~groups×streams flows stay concurrently active. Each island
// registers its four (link, rc) paths once, as the hardware layer
// registers each route once per server.
func buildChurn(s *Sim, groups, streams, chain int) {
	name := s.Name("t")
	for g := 0; g < groups; g++ {
		rc := s.NewResource("rc", 13.1e9)
		var paths [4]PathID
		for i := range paths {
			paths[i] = s.NewPath(s.NewResource("link", 26.2e9), rc)
		}
		for st := 0; st < streams; st++ {
			var prev *Task
			for k := 0; k < chain; k++ {
				// The group index staggers the byte pattern so completions
				// across islands land at distinct instants, as they do in
				// any real pipeline.
				bytes := float64(1+(g*5+st*7+k)%13) * 64e6
				prev = s.Transfer(name, nil, paths[st%len(paths)], bytes, st%4, prev)
			}
		}
	}
}

// benchConstruct measures topology and DAG construction alone.
func benchConstruct(b *testing.B, groups, streams, chain int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		buildChurn(s, groups, streams, chain)
		if s.NumTasks() == 0 {
			b.Fatal("no tasks built")
		}
	}
}

// benchRun measures execution alone: every iteration builds a fresh
// topology and DAG with the timer stopped, so only Run is timed and only
// its allocations are counted.
func benchRun(b *testing.B, groups, streams, chain int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		buildChurn(s, groups, streams, chain)
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimContention is the many-flow contention case: isolated
// islands of a root complex and its links with 64..1024 concurrent flows
// (8 groups × streams/group × 8-deep chains). Every event re-water-fills
// every active flow, so the per-event cost grows with the flow count. No
// server builds isolated islands (every commodity path crosses the DRAM
// bus); the benchmark keeps the cost of the one global fill visible. The
// construct and run sub-benchmarks time construction and execution
// separately.
func BenchmarkSimContention(b *testing.B) {
	for _, streams := range []int{8, 32, 128} {
		flows := 8 * streams
		b.Run(fmt.Sprintf("flows=%d/construct", flows), func(b *testing.B) {
			benchConstruct(b, 8, streams, 8)
		})
		b.Run(fmt.Sprintf("flows=%d/run", flows), func(b *testing.B) {
			benchRun(b, 8, streams, 8)
		})
	}
}

// BenchmarkSimSparse is the sparse many-link case: hundreds of
// single-stream islands, where every event perturbs a one-flow island
// yet re-water-fills every active flow: the worst case for one global
// fill, and a topology no server builds. The construct and run
// sub-benchmarks time construction and execution separately.
func BenchmarkSimSparse(b *testing.B) {
	for _, groups := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("links=%d/construct", groups), func(b *testing.B) {
			benchConstruct(b, groups, 1, 8)
		})
		b.Run(fmt.Sprintf("links=%d/run", groups), func(b *testing.B) {
			benchRun(b, groups, 1, 8)
		})
	}
}
