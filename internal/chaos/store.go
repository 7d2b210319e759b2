package chaos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/planstore"
)

// StoreHarness stress-tests the crash-safe plan store the way the main
// harness stresses the integrity layer: from a single seed it derives a
// store-fault scenario — clean write failures, torn writes at derived
// offsets, injected device latency — and an operation sequence over a
// small key population, executes it against a real directory, and
// checks the invariants that must hold for every seed:
//
//   - the harness mirrors the store's fault decisions (same hash
//     inputs: seed, rule, key, operation sequence number) to compute
//     the exact expected final disk state, so Load must recover
//     precisely the entries whose last effective write was clean and
//     quarantine precisely the torn ones — no survivor lost, no
//     corpse resurrected;
//   - the store's own counters (persisted, deletes, injected
//     failures, torn writes, injected latency) match the mirror
//     exactly, with zero drops and zero real I/O errors;
//   - quarantine sticks: a second replay of the damaged directory
//     sees only the survivors;
//   - re-running the scenario in a fresh directory reproduces
//     counters, load report and the recovered key set bit for bit.
type StoreHarness struct {
	plan *core.Plan
	topo *hw.Topology
}

// NewStoreHarness builds the template plan every scenario persists:
// the cheapest real validated plan (balanced 4-stage GPT-3B on the 2+2
// commodity box), shared across all seeds and entries — scenarios vary
// keys and signatures, not plan content.
func NewStoreHarness() (*StoreHarness, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	plan, err := core.PlanMobius(core.Options{
		Model: model.GPT3B, Topology: topo,
		PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: store template plan: %w", err)
	}
	return &StoreHarness{plan: plan, topo: topo}, nil
}

// StoreChaosOp is one step of a scenario's operation sequence.
type StoreChaosOp struct {
	// KeyIdx indexes the scenario's key population.
	KeyIdx int
	// Delete removes the key instead of writing it.
	Delete bool
}

// StoreScenario is the derived configuration for one seed.
type StoreScenario struct {
	Spec *fault.Spec
	Keys []planstore.Key
	Ops  []StoreChaosOp
}

// StoreScenario derives the scenario for a seed. Every clause stays
// inside its documented ranges — torn mode only on put-capable rules,
// torn offsets only alongside torn mode — so the spec always validates,
// asserted again per run.
func (h *StoreHarness) StoreScenario(seed int64) *StoreScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &StoreScenario{Spec: &fault.Spec{Seed: seed}}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		sc.Keys = append(sc.Keys, planstore.Key(
			sha256.Sum256([]byte(fmt.Sprintf("store-chaos-%d-%d", seed, i)))))
	}
	ops := []string{"put", "delete", "*"}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		f := fault.StoreFault{
			Op:          ops[rng.Intn(len(ops))],
			Mode:        fault.StoreModeFail,
			Probability: 0.7 * rng.Float64(),
			LatencyMS:   2 * rng.Float64(),
		}
		// Torn writes only make sense where a write can happen; Validate
		// rejects a torn delete rule outright.
		if f.Op != "delete" && rng.Intn(2) == 0 {
			f.Mode = fault.StoreModeTorn
			if rng.Intn(2) == 0 {
				f.TornAtByte = 1 + rng.Intn(200)
			}
		}
		sc.Spec.StoreFaults = append(sc.Spec.StoreFaults, f)
	}
	for i, n := 0, 15+rng.Intn(26); i < n; i++ {
		sc.Ops = append(sc.Ops, StoreChaosOp{
			KeyIdx: rng.Intn(len(sc.Keys)),
			Delete: rng.Intn(4) == 0,
		})
	}
	return sc
}

// storeMirror is the expected outcome, computed without touching the
// store: the harness replays the scenario's fault decisions through the
// public fault.Spec.StoreOp with the store's exact hash inputs.
type storeMirror struct {
	intact   map[planstore.Key]bool
	torn     map[planstore.Key]bool
	persisted, deletes,
	failures, tornWrites uint64
	latencyS float64
}

// mirror computes the expected final disk state. Operation i carries
// sequence number i — the store assigns sequence numbers at enqueue, in
// call order — and keys hash with the store's documented FNV-1a fold.
func (h *StoreHarness) mirror(sc *StoreScenario) *storeMirror {
	m := &storeMirror{intact: map[planstore.Key]bool{}, torn: map[planstore.Key]bool{}}
	for i, op := range sc.Ops {
		key := sc.Keys[op.KeyIdx]
		opName := fault.StoreOpPut
		if op.Delete {
			opName = fault.StoreOpDelete
		}
		d := sc.Spec.StoreOp(opName, fnvKey(key), uint64(i))
		m.latencyS += d.LatencyS
		if d.Fail {
			m.failures++
			continue
		}
		switch {
		case op.Delete:
			// Removing an absent file still completes (idempotent).
			delete(m.intact, key)
			delete(m.torn, key)
			m.deletes++
		case d.Torn:
			// The torn prefix lands on the final path, destroying any
			// intact predecessor; a strict prefix can never decode.
			delete(m.intact, key)
			m.torn[key] = true
			m.tornWrites++
		default:
			delete(m.torn, key)
			m.intact[key] = true
			m.persisted++
		}
	}
	return m
}

// fnvKey folds a key exactly like the store salts its fault stream:
// FNV-1a over the raw key bytes.
func fnvKey(k planstore.Key) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range k {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// StoreRunStats is the deterministic outcome of one scenario execution.
type StoreRunStats struct {
	Metrics planstore.Metrics
	Report  planstore.LoadReport
	// KeySet digests the sorted recovered key set; replays must
	// reproduce it exactly.
	KeySet string
}

// StoreReport is the outcome of one store-chaos seed.
type StoreReport struct {
	Seed     int64
	Scenario *StoreScenario
	Stats    StoreRunStats
}

func (r *StoreReport) String() string {
	m := r.Stats.Metrics
	return fmt.Sprintf("store chaos seed %d: %d ops over %d keys, %d persisted, %d deleted, %d failed, %d torn -> %d loaded, %d quarantined",
		r.Seed, len(r.Scenario.Ops), len(r.Scenario.Keys),
		m.Persisted, m.Deletes, m.InjectedFailures, m.TornWrites,
		r.Stats.Report.Entries, r.Stats.Report.Quarantined)
}

// RunStore executes the store-chaos scenario for a seed — one execution
// checked against the mirror, then a bitwise replay in a fresh
// directory. scratch is the parent for the scenario's store
// directories (a test passes t.TempDir()). A non-nil error means an
// invariant was violated.
func (h *StoreHarness) RunStore(seed int64, scratch string) (*StoreReport, error) {
	sc := h.StoreScenario(seed)
	if err := sc.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: seed %d generated an invalid store spec: %w", seed, err)
	}
	first, err := h.executeStore(sc, scratch)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	if err := h.checkStoreInvariants(sc, first); err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	replay, err := h.executeStore(sc, scratch)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d replay: %w", seed, err)
	}
	if first != replay {
		return nil, fmt.Errorf("chaos: seed %d replay diverged:\n  first  %+v\n  replay %+v", seed, first, replay)
	}
	return &StoreReport{Seed: seed, Scenario: sc, Stats: first}, nil
}

// executeStore runs the scenario once in a fresh directory under
// scratch and returns the deterministic outcome.
func (h *StoreHarness) executeStore(sc *StoreScenario, scratch string) (StoreRunStats, error) {
	dir, err := os.MkdirTemp(scratch, "store-chaos-*")
	if err != nil {
		return StoreRunStats{}, err
	}
	defer os.RemoveAll(dir)
	s, err := planstore.Open(planstore.Config{
		Dir:    dir,
		Faults: sc.Spec,
		// Injected latency is accounted in the metrics; burning real
		// wall clock on it would only slow the matrix down.
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		return StoreRunStats{}, err
	}
	defer s.Close()
	for _, op := range sc.Ops {
		key := sc.Keys[op.KeyIdx]
		if op.Delete {
			s.Delete(key)
			continue
		}
		s.Put(planstore.Entry{
			Key:      key,
			Plan:     h.plan,
			Topology: h.topo,
		})
	}
	s.Flush()
	entries, rep, err := s.Load()
	if err != nil {
		return StoreRunStats{}, fmt.Errorf("load aborted: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if verr := e.Plan.Validate(e.Topology); verr != nil {
			return StoreRunStats{}, fmt.Errorf("recovered entry %s fails validation: %w", e.Key, verr)
		}
		names = append(names, e.Key.String())
	}
	sort.Strings(names)
	seq := ""
	for _, n := range names {
		seq += n
	}
	// Quarantine must stick: replaying the damaged directory sees only
	// the survivors, with nothing left to quarantine.
	_, rep2, err := s.Load()
	if err != nil {
		return StoreRunStats{}, fmt.Errorf("second load aborted: %w", err)
	}
	if rep2.Entries != rep.Entries || rep2.Quarantined != 0 {
		return StoreRunStats{}, fmt.Errorf("quarantine did not stick: first %+v, second %+v", rep, rep2)
	}
	m := s.Metrics()
	// The second load overwrote the load-side counters; restore the
	// first replay's so the stats stay comparable.
	m.LoadedEntries = uint64(rep.Entries)
	m.QuarantinedRecords = uint64(rep.Quarantined)
	m.StaleRecords = uint64(rep.Stale)
	m.InvalidRecords = uint64(rep.Invalid)
	return StoreRunStats{Metrics: m, Report: rep, KeySet: foldSeq(seq)}, nil
}

// checkStoreInvariants compares one execution against the mirror.
func (h *StoreHarness) checkStoreInvariants(sc *StoreScenario, st StoreRunStats) error {
	m := h.mirror(sc)
	if st.Report.Entries != len(m.intact) {
		return fmt.Errorf("recovered %d entries, mirror expects %d", st.Report.Entries, len(m.intact))
	}
	if st.Report.Quarantined != len(m.torn) {
		return fmt.Errorf("quarantined %d records, mirror expects %d torn", st.Report.Quarantined, len(m.torn))
	}
	if st.Report.Stale != 0 || st.Report.Invalid != 0 {
		return fmt.Errorf("scenario injects no stale or invalid records, got %+v", st.Report)
	}
	keys := make([]string, 0, len(m.intact))
	for k := range m.intact {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	want := ""
	for _, k := range keys {
		want += k
	}
	if st.KeySet != foldSeq(want) {
		return fmt.Errorf("recovered key set diverges from the mirror's survivors")
	}
	got := st.Metrics
	if got.Persisted != m.persisted || got.Deletes != m.deletes ||
		got.InjectedFailures != m.failures || got.TornWrites != m.tornWrites {
		return fmt.Errorf("counters diverge from mirror: store persisted/deletes/failures/torn %d/%d/%d/%d, mirror %d/%d/%d/%d",
			got.Persisted, got.Deletes, got.InjectedFailures, got.TornWrites,
			m.persisted, m.deletes, m.failures, m.tornWrites)
	}
	if diff := got.InjectedLatencyS - m.latencyS; diff > 1e-12 || diff < -1e-12 {
		return fmt.Errorf("injected latency %.9fs, mirror %.9fs", got.InjectedLatencyS, m.latencyS)
	}
	if got.WriteDrops != 0 || got.IOErrors != 0 {
		return fmt.Errorf("serial scenario dropped %d writes, hit %d real I/O errors", got.WriteDrops, got.IOErrors)
	}
	return nil
}

// RunStoreConcurrent fans seeds out over goroutines, each scenario in
// its own directory under scratch — the -race surface for the store's
// queue, worker and counter paths.
func (h *StoreHarness) RunStoreConcurrent(seeds []int64, conc int, scratch string) error {
	if conc <= 0 {
		conc = 4
	}
	sem := make(chan struct{}, conc)
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, seed int64) {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = h.RunStore(seed, scratch)
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
