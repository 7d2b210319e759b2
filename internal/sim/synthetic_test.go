package sim

// Synthetic scale topologies: parameterized islands of contending
// transfer chains. They feed the construction-allocation gate
// (perf_test.go).
//
// An island is one root-complex resource, a few links, and one engine;
// its streams are chains of transfers (each hop depends on the previous)
// headed by a small compute on the island engine. Islands share nothing.
// SkewFrac concentrates a fraction of all flows into one giant island.

// SyntheticSpec sizes a synthetic scale topology. The zero value of every
// field except Flows picks a sensible default.
type SyntheticSpec struct {
	// Flows is the total number of transfer tasks to emit.
	Flows int
	// Streams is the number of concurrent transfer chains per island
	// (default 4).
	Streams int
	// Chain is the number of dependent transfers per stream (default 8).
	Chain int
	// Links is the number of link resources per island (default 4);
	// streams round-robin over them, all contending on the island's root
	// complex.
	Links int
	// SkewFrac, in [0,1), is the fraction of Flows concentrated into one
	// giant island emitted first. Zero builds a uniform topology.
	SkewFrac float64
}

func (sp SyntheticSpec) withDefaults() SyntheticSpec {
	if sp.Streams <= 0 {
		sp.Streams = 4
	}
	if sp.Chain <= 0 {
		sp.Chain = 8
	}
	if sp.Links <= 0 {
		sp.Links = 4
	}
	return sp
}

// synthMix is a splitmix64-style hash over the (island, stream, hop)
// coordinates. Sizes and durations derive from it so they carry full
// mantissa richness: completion instants in different islands then tie
// either exactly (bit-equal, which the canonical event order handles) or
// by more than the scheduler's float-dust slack, never in between.
func synthMix(island, st, k int) uint64 {
	h := uint64(island)*0x9e3779b97f4a7c15 + uint64(st)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// synthFrac maps the hash to [0,1) with 52 significant bits.
func synthFrac(h uint64) float64 {
	return float64(h>>12) / float64(uint64(1)<<52)
}

func synthBytes(island, st, k int) float64 {
	return 64e6 * (1 + 12*synthFrac(synthMix(island, st, k)))
}

func synthDur(island, st int) Time {
	return Time(1e-5 * (1 + 12*synthFrac(synthMix(island, st, 1<<20))))
}

// BuildSynthetic emits the topology described by spec into s and returns
// the number of transfer flows created (== spec.Flows for positive
// inputs). Generation is purely arithmetic — the same spec always builds
// the identical DAG.
func BuildSynthetic(s *Sim, spec SyntheticSpec) int {
	sp := spec.withDefaults()
	var pathScratch []PathID
	total, island := 0, 0
	head, hop := s.Name("hd"), s.Name("fl")

	// emitIsland adds one island with up to streams chains, stopping after
	// flowsCap transfers; returns how many it emitted.
	emitIsland := func(streams, flowsCap int) int {
		rc := s.NewResource("rc", 13.1e9)
		// Each (link, rc) path is registered once, as hw registers a
		// route once per server.
		paths := pathScratch[:0]
		for i := 0; i < sp.Links; i++ {
			paths = append(paths, s.NewPath(s.NewResource("ln", 26.2e9), rc))
		}
		pathScratch = paths
		eng := s.NewEngine("eng")
		emitted := 0
		for st := 0; st < streams && emitted < flowsCap; st++ {
			prev := s.Compute(head, eng, synthDur(island, st))
			for k := 0; k < sp.Chain && emitted < flowsCap; k++ {
				prev = s.Transfer(hop, nil, paths[st%len(paths)], synthBytes(island, st, k), st%4, prev)
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
