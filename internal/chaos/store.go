package chaos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/planstore"
)

// StoreHarness stress-tests the crash-safe plan store the way the main
// harness stresses the integrity layer: from a single seed it derives an
// operation sequence of puts, deletes and tears over a small key
// population, executes it against a real directory, and checks the
// invariants that must hold for every seed. A tear is a put the harness
// lets land and then truncates on disk to a strict prefix — the crash
// the store's temp+rename protocol cannot absorb (overwrite in place,
// partial page flush).
//
//   - the harness computes the exact expected final disk state from the
//     operation list alone, so Load must recover precisely the entries
//     whose last operation was a clean put and quarantine precisely the
//     torn ones — no survivor lost, no corpse resurrected;
//   - the store's own counters (persisted, deletes) match that mirror
//     exactly, with zero drops and zero I/O errors;
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
// keys, not plan content.
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
	// Tear writes the key, flushes, then truncates its record to
	// 1 + ⌊TearFrac·(size−1)⌋ bytes, TearFrac in [0, 1).
	Tear     bool
	TearFrac float64
}

// StoreScenario is the derived configuration for one seed.
type StoreScenario struct {
	Keys []planstore.Key
	Ops  []StoreChaosOp
}

// StoreScenario derives the scenario for a seed: 2–6 keys, 15–40
// operations, a quarter of them deletes, and each write torn with a
// per-seed rate below one half, so the matrix spans quiet and heavily
// damaged directories.
func (h *StoreHarness) StoreScenario(seed int64) *StoreScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &StoreScenario{}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		sc.Keys = append(sc.Keys, planstore.Key(
			sha256.Sum256([]byte(fmt.Sprintf("store-chaos-%d-%d", seed, i)))))
	}
	tearRate := 0.5 * rng.Float64()
	for i, n := 0, 15+rng.Intn(26); i < n; i++ {
		op := StoreChaosOp{KeyIdx: rng.Intn(len(sc.Keys)), Delete: rng.Intn(4) == 0}
		if !op.Delete && rng.Float64() < tearRate {
			op.Tear, op.TearFrac = true, rng.Float64()
		}
		sc.Ops = append(sc.Ops, op)
	}
	return sc
}

// tears counts the scenario's torn writes.
func (sc *StoreScenario) tears() int {
	n := 0
	for _, op := range sc.Ops {
		if op.Tear {
			n++
		}
	}
	return n
}

// storeMirror is the expected outcome, computed without touching the
// store.
type storeMirror struct {
	intact, torn       map[planstore.Key]bool
	persisted, deletes uint64
}

// mirror computes the expected final disk state from the operation list.
// The store drains FIFO, so the last operation on a key decides its
// record.
func (h *StoreHarness) mirror(sc *StoreScenario) *storeMirror {
	m := &storeMirror{intact: map[planstore.Key]bool{}, torn: map[planstore.Key]bool{}}
	for _, op := range sc.Ops {
		key := sc.Keys[op.KeyIdx]
		switch {
		case op.Delete:
			// Removing an absent file still completes (idempotent).
			delete(m.intact, key)
			delete(m.torn, key)
			m.deletes++
		case op.Tear:
			// The write persists whole before the harness tears it; a
			// strict prefix can never decode.
			delete(m.intact, key)
			m.torn[key] = true
			m.persisted++
		default:
			delete(m.torn, key)
			m.intact[key] = true
			m.persisted++
		}
	}
	return m
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
	return fmt.Sprintf("store chaos seed %d: %d ops over %d keys, %d persisted, %d deleted, %d torn -> %d loaded, %d quarantined",
		r.Seed, len(r.Scenario.Ops), len(r.Scenario.Keys),
		m.Persisted, m.Deletes, r.Scenario.tears(),
		r.Stats.Report.Entries, r.Stats.Report.Quarantined)
}

// RunStore executes the store-chaos scenario for a seed — one execution
// checked against the mirror, then a bitwise replay in a fresh
// directory. scratch is the parent for the scenario's store
// directories (a test passes t.TempDir()). A non-nil error means an
// invariant was violated.
func (h *StoreHarness) RunStore(seed int64, scratch string) (*StoreReport, error) {
	sc := h.StoreScenario(seed)
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
	s, err := planstore.Open(planstore.Config{Dir: dir})
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
		if op.Tear {
			s.Flush()
			// The store names a record <keyhex>.plan.
			if err := tearRecord(filepath.Join(dir, key.String()+".plan"), op.TearFrac); err != nil {
				return StoreRunStats{}, fmt.Errorf("tear: %w", err)
			}
		}
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

// tearRecord truncates a record to a strict prefix of
// 1 + ⌊frac·(size−1)⌋ bytes, frac in [0, 1).
func tearRecord(path string, frac float64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, 1+int64(frac*float64(fi.Size()-1)))
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
		return fmt.Errorf("scenario writes no stale or invalid records, got %+v", st.Report)
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
	if got.Persisted != m.persisted || got.Deletes != m.deletes {
		return fmt.Errorf("counters diverge from mirror: store persisted/deletes %d/%d, mirror %d/%d",
			got.Persisted, got.Deletes, m.persisted, m.deletes)
	}
	if got.WriteDrops != 0 || got.IOErrors != 0 {
		return fmt.Errorf("serial scenario dropped %d writes, hit %d I/O errors", got.WriteDrops, got.IOErrors)
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
