package sim

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/chaos.golden")

// This file is the differential gate of the scheduler: for randomized
// chaos topologies — shared root complexes, isolated links, cross-group
// bridges, degradation windows, retries, corruption, permanent failures
// — every run's task timeline, per-resource traffic and invariant-check
// results are held to a recorded golden file, and a replay of the same
// seed must reproduce them bit for bit.

// timelineEvent is one task start or finish with the timestamp's exact
// bit pattern.
type timelineEvent struct {
	taskID  int
	kind    string
	timeBit uint64
}

// started reports whether a run began executing t: it finished; it holds
// an engine or a flow (a running Alloc is only queued on its pool); or it
// is a Free that began releasing and failed the run with a
// *MemAccountError. Engine tasks still queued and Allocs refused with an
// *OOMError stay ready without starting.
func started(t *Task) bool {
	switch t.state {
	case stateFinished:
		return true
	case stateRunning:
		return t.kind != KindAlloc
	case stateReady:
		return t.kind == KindFree
	}
	return false
}

// timelineOf derives a run's canonical timeline from its final task
// state: every started task's start at startAt and every finished task's
// finish at endAt, ordered by (time, task id, start before finish).
func timelineOf(s *Sim) []timelineEvent {
	type event struct {
		id     int
		at     Time
		finish bool
	}
	var evs []event
	for _, t := range s.taskList() {
		if started(t) {
			evs = append(evs, event{int(t.id), t.startAt, false})
		}
		if t.state == stateFinished {
			evs = append(evs, event{int(t.id), t.endAt, true})
		}
	}
	slices.SortFunc(evs, func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		switch {
		case a.finish == b.finish:
			return 0
		case b.finish:
			return -1
		}
		return 1
	})
	out := make([]timelineEvent, len(evs))
	for i, ev := range evs {
		kind := "start"
		if ev.finish {
			kind = "finish"
		}
		out[i] = timelineEvent{ev.id, kind, math.Float64bits(ev.at)}
	}
	return out
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
// construction is a pure function of the rng stream, so a seed always
// builds the same inputs.
func diffScenario(r *rand.Rand, s *Sim) {
	// Groups of resources: a shared root complex plus private links.
	// Fixed "nice" capacities appear alongside random ones so exact
	// cross-group rate ties (symmetric topologies) are exercised.
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
	// root complexes, coupling their rates mid-run; double-weight
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
				prev = s.Compute(s.Name("c"), engines[r.Intn(len(engines))], r.Float64()*0.2, deps...)
			case 1:
				amt := 1 + r.Float64()*50
				a := s.Alloc(s.Name("a"), pool, amt, deps...)
				prev = s.Free(s.Name("f"), pool, amt, a)
			case 2:
				// Zero-byte transfer (instant completion path).
				prev = s.Transfer(s.Name("z"), nil, s.NewPath(groups[g].rc), 0, r.Intn(4), deps...)
			case 3:
				// Bridge: crosses this group's and another group's rc.
				og := (g + 1 + r.Intn(nGroups)) % nGroups
				path := s.NewPath(groups[g].rc, groups[og].rc)
				prev = s.Transfer(s.Name("bridge"), nil, path, (0.5+r.Float64())*1e9, r.Intn(4), deps...)
			default:
				link := groups[g].links[r.Intn(len(groups[g].links))]
				var path PathID
				if r.Intn(5) == 0 {
					// Staged copy: crosses the root complex twice.
					path = s.NewPath(link, groups[g].rc, groups[g].rc)
				} else {
					path = s.NewPath(link, groups[g].rc)
				}
				var eng *Engine
				if r.Intn(4) == 0 {
					eng = engines[r.Intn(len(engines))]
				}
				bytes := (0.1 + r.Float64()*2) * 1e9
				prev = s.Transfer(s.Name("t"), eng, path, bytes, r.Intn(4), deps...)
			}
		}
	}

	// Degradation windows: capacity drops with restores, overlapping in
	// time across different resources, churning rates mid-run.
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
// independent groups of flows at once, which the shared-state scenario
// above mostly couples through its global engines and pool.
func diffScenarioIsolated(r *rand.Rand, s *Sim) {
	if r.Intn(3) == 0 {
		s.TransferLatency = Time(r.Float64() * 5e-4)
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
					prev = s.Compute(s.Name("c"), eng, r.Float64()*0.2, deps...)
				case 1:
					amt := 1 + r.Float64()*50
					a := s.Alloc(s.Name("a"), pool, amt, deps...)
					prev = s.Free(s.Name("f"), pool, amt, a)
				case 2:
					prev = s.Transfer(s.Name("z"), nil, s.NewPath(rc), 0, r.Intn(4), deps...)
				default:
					link := links[r.Intn(len(links))]
					var path PathID
					if r.Intn(5) == 0 {
						path = s.NewPath(link, rc, rc)
					} else {
						path = s.NewPath(link, rc)
					}
					var taskEng *Engine
					if r.Intn(4) == 0 {
						taskEng = eng
					}
					bytes := (0.1 + r.Float64()*2) * 1e9
					prev = s.Transfer(s.Name("t"), taskEng, path, bytes, r.Intn(4), deps...)
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
// single-stream groups: one large, churning group of flows beside a
// swarm of short-lived tiny ones.
func diffScenarioSkewed(r *rand.Rand, s *Sim) {
	if r.Intn(3) == 0 {
		s.TransferLatency = Time(r.Float64() * 5e-4)
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
					prev = s.Compute(s.Name("c"), eng, r.Float64()*0.2, deps...)
				case 1:
					amt := 1 + r.Float64()*50
					a := s.Alloc(s.Name("a"), pool, amt, deps...)
					prev = s.Free(s.Name("f"), pool, amt, a)
				case 2:
					prev = s.Transfer(s.Name("z"), nil, s.NewPath(rc), 0, r.Intn(4), deps...)
				default:
					link := links[r.Intn(len(links))]
					path := s.NewPath(link, rc)
					bytes := (0.1 + r.Float64()*2) * 1e9
					prev = s.Transfer(s.Name("t"), nil, path, bytes, r.Intn(4), deps...)
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
func captureRecord(s *Sim, makespan Time, err error) runRecord {
	rec := runRecord{
		makespanBits: math.Float64bits(makespan),
		events:       timelineOf(s),
	}
	if err != nil {
		rec.errText = err.Error()
	}
	for _, t := range s.taskList() {
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

// runScenario executes a seed's scenario and records every observable
// bit.
func runScenario(seed int64, build func(*rand.Rand, *Sim)) runRecord {
	r := rand.New(rand.NewSource(seed))
	s := New()
	build(r, s)

	makespan, err := s.Run()
	return captureRecord(s, makespan, err)
}

// diffRecords requires two runs of one seed to agree bit for bit.
func diffRecords(t *testing.T, seed int64, a, b runRecord) {
	t.Helper()
	if a.makespanBits != b.makespanBits {
		t.Errorf("seed %d: makespan diverged: %g vs %g", seed,
			math.Float64frombits(a.makespanBits), math.Float64frombits(b.makespanBits))
	}
	if a.errText != b.errText {
		t.Errorf("seed %d: error diverged: %q vs %q", seed, a.errText, b.errText)
	}
	if !slices.Equal(a.events, b.events) {
		t.Errorf("seed %d: timeline diverged", seed)
	}
	if !slices.Equal(a.taskStarts, b.taskStarts) || !slices.Equal(a.taskEnds, b.taskEnds) {
		t.Errorf("seed %d: task times diverged", seed)
	}
	if !slices.Equal(a.carried, b.carried) {
		t.Errorf("seed %d: carried bytes diverged", seed)
	}
	if !slices.Equal(a.invariants, b.invariants) {
		t.Errorf("seed %d: invariant results diverged: %v vs %v", seed, a.invariants, b.invariants)
	}
	// No run may violate the simulator's own invariants, whether it
	// completed or halted on a structured failure.
	if len(a.invariants) != 0 {
		t.Errorf("seed %d: invariants violated: %v", seed, a.invariants)
	}
}

// TestDifferentialReplayDeterminism pins that the scheduler is
// self-deterministic: the same seed replays bit-identically.
func TestDifferentialReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		a := runScenario(seed, diffScenario)
		b := runScenario(seed, diffScenario)
		diffRecords(t, seed, a, b)
	}
}

// goldenPath holds every differential chaos run's observable record.
const goldenPath = "testdata/chaos.golden"

// diffScenarios are the differential scenario builders, in the order
// the golden file lists their runs.
var diffScenarios = []struct {
	name  string
	build func(*rand.Rand, *Sim)
}{
	{"shared", diffScenario},
	{"isolated", diffScenarioIsolated},
	{"skewed", diffScenarioSkewed},
}

// goldenRun is one line of the golden file: a run's record with the
// timeline and the per-task times folded into digests, and each
// resource's carried bytes kept as float bits so a comparison can
// measure its distance in ulps.
type goldenRun struct {
	Scenario   string   `json:"scenario"`
	Seed       int64    `json:"seed"`
	Makespan   uint64   `json:"makespan"`
	Err        string   `json:"err,omitempty"`
	Timeline   string   `json:"timeline"`
	Tasks      string   `json:"tasks"`
	Invariants []string `json:"invariants,omitempty"`
	Carried    []uint64 `json:"carried"`
}

func digest(words ...[]uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, ws := range words {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ws)))
		h.Write(buf[:])
		for _, w := range ws {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenOf(name string, seed int64, rec runRecord) goldenRun {
	var tl []uint64
	for _, ev := range rec.events {
		kind := uint64(0)
		if ev.kind == "finish" {
			kind = 1
		}
		tl = append(tl, uint64(ev.taskID), kind, ev.timeBit)
	}
	return goldenRun{
		Scenario:   name,
		Seed:       seed,
		Makespan:   rec.makespanBits,
		Err:        rec.errText,
		Timeline:   digest(tl),
		Tasks:      digest(rec.taskStarts, rec.taskEnds),
		Invariants: rec.invariants,
		Carried:    rec.carried,
	}
}

// ulps is the distance in units in the last place between two
// non-negative floats given by their bits.
func ulps(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestDifferentialGolden holds every run of the three differential
// scenario builders, 64 seeds each, to testdata/chaos.golden: makespan,
// error text, timeline, task start and end times and invariant results
// bit for bit, and each resource's carried bytes to within 4 ulps, the
// float dust of settling flows in a different order. Regenerate with
// go test ./internal/sim/ -run TestDifferentialGolden -args -update, only
// at a commit that is meant to move schedules.
func TestDifferentialGolden(t *testing.T) {
	var got []goldenRun
	for _, sc := range diffScenarios {
		for seed := int64(1); seed <= 64; seed++ {
			got = append(got, goldenOf(sc.name, seed, runScenario(seed, sc.build)))
		}
	}
	if *update {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("%s lists %d runs, the scenarios make %d", goldenPath, len(want), len(got))
	}
	for i, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			for j := i * 64; j < (i+1)*64; j++ {
				checkGolden(t, got[j], want[j])
			}
		})
	}
}

func writeGolden(t *testing.T, runs []goldenRun) {
	t.Helper()
	f, err := os.Create(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, g := range runs {
		if err := enc.Encode(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) []goldenRun {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var runs []goldenRun
	for dec.More() {
		var g goldenRun
		if err := dec.Decode(&g); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, g)
	}
	return runs
}

func checkGolden(t *testing.T, g, w goldenRun) {
	t.Helper()
	id := fmt.Sprintf("%s seed %d", g.Scenario, g.Seed)
	if g.Scenario != w.Scenario || g.Seed != w.Seed {
		t.Fatalf("%s: golden has %s seed %d in its place", id, w.Scenario, w.Seed)
	}
	if g.Makespan != w.Makespan {
		t.Errorf("%s: makespan %g, golden %g", id, math.Float64frombits(g.Makespan), math.Float64frombits(w.Makespan))
	}
	if g.Err != w.Err {
		t.Errorf("%s: error %q, golden %q", id, g.Err, w.Err)
	}
	if g.Timeline != w.Timeline {
		t.Errorf("%s: timeline differs from the golden one", id)
	}
	if g.Tasks != w.Tasks {
		t.Errorf("%s: task start or end times differ from the golden ones", id)
	}
	if !slices.Equal(g.Invariants, w.Invariants) {
		t.Errorf("%s: invariants %q, golden %q", id, g.Invariants, w.Invariants)
	}
	if len(g.Invariants) != 0 {
		t.Errorf("%s: invariants violated: %v", id, g.Invariants)
	}
	if len(g.Carried) != len(w.Carried) {
		t.Fatalf("%s: %d resources, golden %d", id, len(g.Carried), len(w.Carried))
	}
	for r := range g.Carried {
		if d := ulps(g.Carried[r], w.Carried[r]); d > 4 {
			t.Errorf("%s: resource %d carried %g, golden %g (%d ulps apart)", id, r,
				math.Float64frombits(g.Carried[r]), math.Float64frombits(w.Carried[r]), d)
		}
	}
}
