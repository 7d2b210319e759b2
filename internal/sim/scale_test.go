package sim

import "testing"

// Scale coverage for the streaming Builder and Reset's high-water-mark
// shrink, over the synthetic topologies of synthetic_test.go.

// buildSyntheticNaive is the pre-Builder twin of BuildSynthetic: the same
// DAG emitted through the variadic public constructors. It exists so the
// construct-allocation gate (perf_test.go) and the bitwise-equivalence
// test below compare the streaming path against exactly what it replaced.
func buildSyntheticNaive(s *Sim, spec SyntheticSpec) int {
	sp := spec.withDefaults()
	var linkScratch []*Resource
	total, island := 0, 0
	emitIsland := func(streams, flowsCap int) int {
		rc := s.NewResource("rc", 13.1e9)
		links := linkScratch[:0]
		for i := 0; i < sp.Links; i++ {
			links = append(links, s.NewResource("ln", 26.2e9))
		}
		linkScratch = links
		eng := s.NewEngine("eng")
		emitted := 0
		for st := 0; st < streams && emitted < flowsCap; st++ {
			prev := s.Compute("hd", eng, synthDur(island, st))
			for k := 0; k < sp.Chain && emitted < flowsCap; k++ {
				prev = s.Transfer("fl", nil, s.Path(links[st%len(links)], rc), synthBytes(island, st, k), st%4, prev)
				emitted++
			}
		}
		island++
		return emitted
	}
	if sp.SkewFrac > 0 && sp.Flows > 0 {
		giant := int(float64(sp.Flows) * sp.SkewFrac)
		if giant > 0 {
			streams := (giant + sp.Chain - 1) / sp.Chain
			total += emitIsland(streams, giant)
		}
	}
	per := sp.Streams * sp.Chain
	for total < sp.Flows {
		n := sp.Flows - total
		if n > per {
			n = per
		}
		total += emitIsland(sp.Streams, n)
	}
	return total
}

// runSyntheticRecord builds a synthetic topology one way or the other and
// runs it, capturing every observable bit.
func runSyntheticRecord(spec SyntheticSpec, naive bool) runRecord {
	s := New()
	obs := &timelineObserver{}
	s.Observe(obs)
	if naive {
		buildSyntheticNaive(s, spec)
	} else {
		BuildSynthetic(s, spec)
	}
	makespan, err := s.Run()
	return captureRecord(s, obs, makespan, err)
}

// TestBuilderMatchesNaive pins that the streaming Builder emits the
// identical DAG to the variadic constructors: same task ids, same dep
// order, same schedule, bit for bit.
func TestBuilderMatchesNaive(t *testing.T) {
	spec := SyntheticSpec{Flows: 2000, SkewFrac: 0.3}
	naive := runSyntheticRecord(spec, true)
	stream := runSyntheticRecord(spec, false)
	diffRecords(t, 0, stream, naive)
}

// TestResetShrinksRetainedSlabs is the regression gate for the Reset
// shrink: after a large run, a Reset whose window only saw a tiny run
// must release the oversized pooled buffers instead of pinning peak
// memory forever — while a Reset straight after the large run (the
// steady-state grid shape) keeps capacity intact.
func TestResetShrinksRetainedSlabs(t *testing.T) {
	s := New()
	obs := &timelineObserver{}
	s.Observe(obs)
	// Wide topology: every stream is one flow, so peak concurrent flows
	// and buffered events both clear the shrink floor by a wide margin.
	BuildSynthetic(s, SyntheticSpec{Flows: 12000, Chain: 1, Streams: 64})
	if _, err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(s.flowPool) <= shrinkMinCap {
		t.Fatalf("test setup: flow pool only %d entries, need > %d to exercise shrink", len(s.flowPool), shrinkMinCap)
	}
	if cap(s.events) <= shrinkMinCap {
		t.Fatalf("test setup: events cap only %d, need > %d", cap(s.events), shrinkMinCap)
	}

	// Reset right after the big run: the window's high-water marks equal
	// the retained capacity, so nothing may shrink (steady-state reruns
	// of the same DAG must stay allocation-free).
	bigEvents, bigPool := cap(s.events), len(s.flowPool)
	s.Reset()
	if cap(s.events) != bigEvents {
		t.Fatalf("Reset after full run shrank events: cap %d -> %d", bigEvents, cap(s.events))
	}
	if len(s.flowPool) != bigPool {
		t.Fatalf("Reset after full run shrank flow pool: %d -> %d", bigPool, len(s.flowPool))
	}

	// A failure at t=0 halts the next run immediately: the window sees
	// almost nothing, and the following Reset must release the capacity
	// the big run left behind.
	s.ScheduleFailure(0, "loss", []*Resource{s.resources[0]}, nil)
	obs.events = obs.events[:0]
	if _, err := s.Run(); err == nil {
		t.Fatal("expected halted run to report an error")
	}
	s.Reset()
	if c := cap(s.events); c > shrinkMinCap {
		t.Errorf("events capacity not shrunk: cap %d > %d", c, shrinkMinCap)
	}
	if n := len(s.flowPool); n > shrinkMinCap {
		t.Errorf("flow pool not shrunk: %d entries > %d", n, shrinkMinCap)
	}

	// The shrunk simulator still replays the fault-free schedule.
	obs.events = obs.events[:0]
	if _, err := s.Run(); err != nil {
		t.Fatalf("run after shrink: %v", err)
	}
}
