package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file is the differential gate of the incremental scheduler: for
// randomized chaos topologies — shared root complexes, isolated links,
// cross-group bridges that force component merges, degradation windows,
// retries, corruption, permanent failures — the incremental
// component-local scheduler must produce BITWISE-identical task
// timelines, per-resource traffic, and invariant-check results to the
// retained global recompute oracle. Any divergence, even one ulp, means
// the component decomposition changed an observable schedule.

// timelineEvent is one observer notification with the timestamp's exact
// bit pattern.
type timelineEvent struct {
	taskID  int
	kind    string
	timeBit uint64
}

type timelineObserver struct {
	events []timelineEvent
}

func (o *timelineObserver) TaskStarted(t *Task, at Time) {
	o.events = append(o.events, timelineEvent{t.ID(), "start", math.Float64bits(at)})
}

func (o *timelineObserver) TaskFinished(t *Task, at Time) {
	o.events = append(o.events, timelineEvent{t.ID(), "finish", math.Float64bits(at)})
}

// runRecord is everything observable about one run, bit-exact.
type runRecord struct {
	makespanBits uint64
	errText      string
	events       []timelineEvent
	taskEnds     []uint64 // per task: endAt bits
	taskStarts   []uint64
	carried      []uint64 // per resource: carried bits
	invariants   []string
}

// diffScenario builds one randomized chaos topology and DAG into s. The
// construction is a pure function of the rng stream so both scheduler
// modes see identical inputs.
func diffScenario(r *rand.Rand, s *Sim) {
	// Groups of resources: a shared root complex plus private links.
	// Fixed "nice" capacities appear alongside random ones so exact
	// cross-component rate ties (symmetric topologies) are exercised.
	nGroups := 2 + r.Intn(4)
	type group struct {
		rc    *Resource
		links []*Resource
	}
	groups := make([]group, nGroups)
	var allRes []*Resource
	for g := range groups {
		cap := 13.1e9
		if r.Intn(2) == 0 {
			cap = 1e9 * (4 + 12*r.Float64())
		}
		rc := s.NewResource(fmt.Sprintf("rc%d", g), cap)
		groups[g].rc = rc
		allRes = append(allRes, rc)
		for l := 0; l < 1+r.Intn(3); l++ {
			lcap := 26.2e9
			if r.Intn(2) == 0 {
				lcap = 1e9 * (8 + 24*r.Float64())
			}
			lr := s.NewResource(fmt.Sprintf("g%d.link%d", g, l), lcap)
			groups[g].links = append(groups[g].links, lr)
			allRes = append(allRes, lr)
		}
	}

	engines := make([]*Engine, 1+r.Intn(4))
	for i := range engines {
		engines[i] = s.NewEngine(fmt.Sprintf("eng%d", i))
	}
	pool := s.NewMemPool("mem", 256)

	if r.Intn(3) == 0 {
		s.TransferLatency = Time(r.Float64() * 5e-4)
	}
	if r.Intn(3) == 0 {
		seed := r.Int63()
		s.RetryPolicy = func(t *Task) (int, Time) {
			h := uint64(seed) ^ uint64(t.ID())*0x9e3779b97f4a7c15
			h ^= h >> 33
			if h%7 == 0 {
				return 1 + int(h%2), Time(1e-4)
			}
			return 0, 0
		}
	}
	if r.Intn(3) == 0 {
		seed := r.Int63()
		s.CorruptionPolicy = func(t *Task, attempt int) bool {
			h := uint64(seed) ^ uint64(t.ID())*0xbf58476d1ce4e5b9 ^ uint64(attempt)<<32
			h ^= h >> 29
			return h%11 == 0
		}
		if r.Intn(2) == 0 {
			s.Checksums = ChecksumConfig{Enabled: true}
		}
	}

	// Streams of chained transfers with interleaved computes and
	// alloc/free pairs. Occasional bridge transfers cross two groups'
	// root complexes, forcing union-find merges mid-run; double-weight
	// crossings exercise weighted paths.
	nStreams := 2 + r.Intn(10)
	for st := 0; st < nStreams; st++ {
		g := st % nGroups
		var prev *Task
		chain := 1 + r.Intn(6)
		for k := 0; k < chain; k++ {
			var deps []*Task
			if prev != nil {
				deps = append(deps, prev)
			}
			switch r.Intn(10) {
			case 0:
				prev = s.Compute("c", engines[r.Intn(len(engines))], r.Float64()*0.2, deps...)
			case 1:
				amt := 1 + r.Float64()*50
				a := s.Alloc("a", pool, amt, deps...)
				prev = s.Free("f", pool, amt, a)
			case 2:
				// Zero-byte transfer (instant completion path).
				prev = s.Transfer("z", nil, Path(groups[g].rc), 0, r.Intn(4), deps...)
			case 3:
				// Bridge: crosses this group's and another group's rc.
				og := (g + 1 + r.Intn(nGroups)) % nGroups
				path := Path(groups[g].rc, groups[og].rc)
				prev = s.Transfer("bridge", nil, path, (0.5+r.Float64())*1e9, r.Intn(4), deps...)
			default:
				link := groups[g].links[r.Intn(len(groups[g].links))]
				var path []PathElem
				if r.Intn(5) == 0 {
					// Staged copy: crosses the root complex twice.
					path = Path(link, groups[g].rc, groups[g].rc)
				} else {
					path = Path(link, groups[g].rc)
				}
				var eng *Engine
				if r.Intn(4) == 0 {
					eng = engines[r.Intn(len(engines))]
				}
				bytes := (0.1 + r.Float64()*2) * 1e9
				prev = s.Transfer("t", eng, path, bytes, r.Intn(4), deps...)
			}
		}
	}

	// Degradation windows: capacity drops with restores, overlapping in
	// time across different resources, churning component rates mid-run.
	for i, n := 0, r.Intn(4); i < n; i++ {
		res := allRes[r.Intn(len(allRes))]
		at := r.Float64() * 0.5
		s.ScheduleCapacity(res, at, res.Capacity()*(0.25+0.5*r.Float64()))
		if r.Intn(2) == 0 {
			s.ScheduleCapacity(res, at+r.Float64()*0.5, res.Capacity())
		}
	}
	// Occasional permanent failure, exercising the halted-run path.
	if r.Intn(5) == 0 {
		s.ScheduleFailure(r.Float64()*0.3, "loss", []*Resource{allRes[r.Intn(len(allRes))]}, nil)
	}
}

// diffScenarioIsolated builds a scenario whose groups share nothing — no
// bridges, per-group engines and pools — so the run carries many
// independent components at once, which the shared-state scenario above
// mostly merges through its global engines and pool.
func diffScenarioIsolated(r *rand.Rand, s *Sim) {
	if r.Intn(3) == 0 {
		s.TransferLatency = Time(r.Float64() * 5e-4)
	}
	if r.Intn(3) == 0 {
		seed := r.Int63()
		s.RetryPolicy = func(t *Task) (int, Time) {
			h := uint64(seed) ^ uint64(t.ID())*0x9e3779b97f4a7c15
			h ^= h >> 33
			if h%7 == 0 {
				return 1 + int(h%2), Time(1e-4)
			}
			return 0, 0
		}
	}
	if r.Intn(3) == 0 {
		seed := r.Int63()
		s.CorruptionPolicy = func(t *Task, attempt int) bool {
			h := uint64(seed) ^ uint64(t.ID())*0xbf58476d1ce4e5b9 ^ uint64(attempt)<<32
			h ^= h >> 29
			return h%11 == 0
		}
		if r.Intn(2) == 0 {
			s.Checksums = ChecksumConfig{Enabled: true}
		}
	}

	nGroups := 3 + r.Intn(6)
	var allRes []*Resource
	for g := 0; g < nGroups; g++ {
		cap := 13.1e9
		if r.Intn(2) == 0 {
			cap = 1e9 * (4 + 12*r.Float64())
		}
		rc := s.NewResource(fmt.Sprintf("rc%d", g), cap)
		allRes = append(allRes, rc)
		var links []*Resource
		for l := 0; l < 1+r.Intn(3); l++ {
			lcap := 26.2e9
			if r.Intn(2) == 0 {
				lcap = 1e9 * (8 + 24*r.Float64())
			}
			lr := s.NewResource(fmt.Sprintf("g%d.link%d", g, l), lcap)
			links = append(links, lr)
			allRes = append(allRes, lr)
		}
		eng := s.NewEngine(fmt.Sprintf("eng%d", g))
		pool := s.NewMemPool(fmt.Sprintf("mem%d", g), 256)

		nStreams := 1 + r.Intn(4)
		for st := 0; st < nStreams; st++ {
			var prev *Task
			chain := 1 + r.Intn(6)
			for k := 0; k < chain; k++ {
				var deps []*Task
				if prev != nil {
					deps = append(deps, prev)
				}
				switch r.Intn(10) {
				case 0:
					prev = s.Compute("c", eng, r.Float64()*0.2, deps...)
				case 1:
					amt := 1 + r.Float64()*50
					a := s.Alloc("a", pool, amt, deps...)
					prev = s.Free("f", pool, amt, a)
				case 2:
					prev = s.Transfer("z", nil, Path(rc), 0, r.Intn(4), deps...)
				default:
					link := links[r.Intn(len(links))]
					var path []PathElem
					if r.Intn(5) == 0 {
						path = Path(link, rc, rc)
					} else {
						path = Path(link, rc)
					}
					var taskEng *Engine
					if r.Intn(4) == 0 {
						taskEng = eng
					}
					bytes := (0.1 + r.Float64()*2) * 1e9
					prev = s.Transfer("t", taskEng, path, bytes, r.Intn(4), deps...)
				}
			}
		}
	}

	for i, n := 0, r.Intn(4); i < n; i++ {
		res := allRes[r.Intn(len(allRes))]
		at := r.Float64() * 0.5
		s.ScheduleCapacity(res, at, res.Capacity()*(0.25+0.5*r.Float64()))
		if r.Intn(2) == 0 {
			s.ScheduleCapacity(res, at+r.Float64()*0.5, res.Capacity())
		}
	}
}

// diffScenarioSkewed builds an adversarially skewed isolated topology:
// one giant group carrying most of the tasks plus a swarm of tiny
// single-stream groups: one large, churning component beside a swarm of
// short-lived tiny ones.
func diffScenarioSkewed(r *rand.Rand, s *Sim) {
	if r.Intn(3) == 0 {
		s.TransferLatency = Time(r.Float64() * 5e-4)
	}
	if r.Intn(3) == 0 {
		seed := r.Int63()
		s.RetryPolicy = func(t *Task) (int, Time) {
			h := uint64(seed) ^ uint64(t.ID())*0x9e3779b97f4a7c15
			h ^= h >> 33
			if h%7 == 0 {
				return 1 + int(h%2), Time(1e-4)
			}
			return 0, 0
		}
	}
	if r.Intn(3) == 0 {
		seed := r.Int63()
		s.CorruptionPolicy = func(t *Task, attempt int) bool {
			h := uint64(seed) ^ uint64(t.ID())*0xbf58476d1ce4e5b9 ^ uint64(attempt)<<32
			h ^= h >> 29
			return h%11 == 0
		}
		if r.Intn(2) == 0 {
			s.Checksums = ChecksumConfig{Enabled: true}
		}
	}

	var allRes []*Resource
	emitGroup := func(g, nStreams, maxChain int) {
		rc := s.NewResource(fmt.Sprintf("rc%d", g), 1e9*(4+12*r.Float64()))
		allRes = append(allRes, rc)
		var links []*Resource
		for l := 0; l < 1+r.Intn(3); l++ {
			lr := s.NewResource(fmt.Sprintf("g%d.link%d", g, l), 1e9*(8+24*r.Float64()))
			links = append(links, lr)
			allRes = append(allRes, lr)
		}
		eng := s.NewEngine(fmt.Sprintf("eng%d", g))
		pool := s.NewMemPool(fmt.Sprintf("mem%d", g), 256)
		for st := 0; st < nStreams; st++ {
			var prev *Task
			chain := 1 + r.Intn(maxChain)
			for k := 0; k < chain; k++ {
				var deps []*Task
				if prev != nil {
					deps = append(deps, prev)
				}
				switch r.Intn(10) {
				case 0:
					prev = s.Compute("c", eng, r.Float64()*0.2, deps...)
				case 1:
					amt := 1 + r.Float64()*50
					a := s.Alloc("a", pool, amt, deps...)
					prev = s.Free("f", pool, amt, a)
				case 2:
					prev = s.Transfer("z", nil, Path(rc), 0, r.Intn(4), deps...)
				default:
					link := links[r.Intn(len(links))]
					path := Path(link, rc)
					bytes := (0.1 + r.Float64()*2) * 1e9
					prev = s.Transfer("t", nil, path, bytes, r.Intn(4), deps...)
				}
			}
		}
	}

	// One giant group, then a swarm of tiny ones.
	emitGroup(0, 8+r.Intn(8), 8)
	nTiny := 10 + r.Intn(10)
	for g := 1; g <= nTiny; g++ {
		emitGroup(g, 1, 3)
	}

	for i, n := 0, r.Intn(4); i < n; i++ {
		res := allRes[r.Intn(len(allRes))]
		at := r.Float64() * 0.5
		s.ScheduleCapacity(res, at, res.Capacity()*(0.25+0.5*r.Float64()))
		if r.Intn(2) == 0 {
			s.ScheduleCapacity(res, at+r.Float64()*0.5, res.Capacity())
		}
	}
}

// captureRecord snapshots everything observable about a finished run.
func captureRecord(s *Sim, obs *timelineObserver, makespan Time, err error) runRecord {
	rec := runRecord{
		makespanBits: math.Float64bits(makespan),
		events:       obs.events,
	}
	if err != nil {
		rec.errText = err.Error()
	}
	for _, t := range s.tasks {
		rec.taskStarts = append(rec.taskStarts, math.Float64bits(t.startAt))
		rec.taskEnds = append(rec.taskEnds, math.Float64bits(t.endAt))
	}
	for _, res := range s.resources {
		rec.carried = append(rec.carried, math.Float64bits(res.carried))
	}
	for _, e := range s.CheckInvariants() {
		rec.invariants = append(rec.invariants, e.Error())
	}
	return rec
}

// runScenarioMode executes a seed's scenario under one scheduler mode —
// oracle or incremental — and records every observable bit.
func runScenarioMode(seed int64, oracle bool, build func(*rand.Rand, *Sim)) runRecord {
	r := rand.New(rand.NewSource(seed))
	s := New()
	s.rateOracle = oracle
	obs := &timelineObserver{}
	s.Observe(obs)
	build(r, s)

	makespan, err := s.Run()
	return captureRecord(s, obs, makespan, err)
}

// runScenario executes the seed's shared-state scenario.
func runScenario(seed int64, oracle bool) runRecord {
	return runScenarioMode(seed, oracle, diffScenario)
}

func diffRecords(t *testing.T, seed int64, inc, ora runRecord) {
	t.Helper()
	if inc.makespanBits != ora.makespanBits {
		t.Errorf("seed %d: makespan diverged: %x vs %x (%g vs %g)", seed,
			inc.makespanBits, ora.makespanBits,
			math.Float64frombits(inc.makespanBits), math.Float64frombits(ora.makespanBits))
	}
	if inc.errText != ora.errText {
		t.Errorf("seed %d: error diverged:\n  incremental: %q\n  oracle:      %q", seed, inc.errText, ora.errText)
	}
	if len(inc.events) != len(ora.events) {
		t.Fatalf("seed %d: event count diverged: %d vs %d", seed, len(inc.events), len(ora.events))
	}
	for i := range inc.events {
		if inc.events[i] != ora.events[i] {
			t.Fatalf("seed %d: event %d diverged: %+v vs %+v", seed, i, inc.events[i], ora.events[i])
		}
	}
	for i := range inc.taskEnds {
		if inc.taskStarts[i] != ora.taskStarts[i] || inc.taskEnds[i] != ora.taskEnds[i] {
			t.Errorf("seed %d: task %d times diverged", seed, i)
		}
	}
	for i := range inc.carried {
		if inc.carried[i] != ora.carried[i] {
			t.Errorf("seed %d: resource %d carried diverged: %g vs %g", seed, i,
				math.Float64frombits(inc.carried[i]), math.Float64frombits(ora.carried[i]))
		}
	}
	if len(inc.invariants) != len(ora.invariants) {
		t.Errorf("seed %d: invariant results diverged: %v vs %v", seed, inc.invariants, ora.invariants)
	} else {
		for i := range inc.invariants {
			if inc.invariants[i] != ora.invariants[i] {
				t.Errorf("seed %d: invariant %d diverged: %q vs %q", seed, i, inc.invariants[i], ora.invariants[i])
			}
		}
	}
	// Neither mode may violate the simulator's own invariants on runs
	// that completed or halted on a structured failure.
	if len(inc.invariants) != 0 {
		t.Errorf("seed %d: invariants violated: %v", seed, inc.invariants)
	}
}

// TestDifferentialIncrementalVsOracle runs 64 randomized chaos topologies
// from each scenario builder under both schedulers and requires
// bit-for-bit identical behavior.
func TestDifferentialIncrementalVsOracle(t *testing.T) {
	for _, sc := range []struct {
		name  string
		build func(*rand.Rand, *Sim)
	}{
		{"shared", diffScenario},
		{"isolated", diffScenarioIsolated},
		{"skewed", diffScenarioSkewed},
	} {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 64; seed++ {
				inc := runScenarioMode(seed, false, sc.build)
				ora := runScenarioMode(seed, true, sc.build)
				diffRecords(t, seed, inc, ora)
				if t.Failed() {
					t.Fatalf("seed %d: differential divergence (stopping)", seed)
				}
			}
		})
	}
}

// TestDifferentialReplayDeterminism pins that each mode is also
// self-deterministic: the same seed replays bit-identically.
func TestDifferentialReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		for _, oracle := range []bool{false, true} {
			a := runScenario(seed, oracle)
			b := runScenario(seed, oracle)
			diffRecords(t, seed, a, b)
		}
	}
}

// TestRewindReplayBitwise pins topology reuse: rewinding an executed
// simulator and re-running the same DAG — the shape Reset gives the
// chaos harness and experiment grids — must replay every observable bit,
// including scheduled faults.
func TestRewindReplayBitwise(t *testing.T) {
	for _, seed := range []int64{3, 17, 42, 58} {
		for _, build := range []func(*rand.Rand, *Sim){diffScenario, diffScenarioIsolated} {
			r := rand.New(rand.NewSource(seed))
			s := New()
			obs := &timelineObserver{}
			s.Observe(obs)
			build(r, s)

			makespan, err := s.Run()
			first := captureRecord(s, obs, makespan, err)

			s.rewind()
			obs.events = nil
			makespan, err = s.Run()
			second := captureRecord(s, obs, makespan, err)
			diffRecords(t, seed, first, second)
			if t.Failed() {
				t.Fatalf("seed %d: rewind replay diverged (stopping)", seed)
			}
		}
	}
}
