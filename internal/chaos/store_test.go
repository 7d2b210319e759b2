package chaos

import (
	"sync"
	"testing"
)

var (
	storeHarnessOnce sync.Once
	storeHarness     *StoreHarness
	storeHarnessErr  error
)

// getStoreHarness plans the template entry once and shares it across
// tests and fuzz iterations.
func getStoreHarness(t testing.TB) *StoreHarness {
	t.Helper()
	storeHarnessOnce.Do(func() { storeHarness, storeHarnessErr = NewStoreHarness() })
	if storeHarnessErr != nil {
		t.Fatal(storeHarnessErr)
	}
	return storeHarness
}

// TestStoreChaosMatrix sweeps seeds through the store harness: each
// derives an operation sequence of puts, deletes and on-disk tears,
// executes it against a real directory, checks the recovered state
// against the mirror, and replays it bitwise. The matrix must
// collectively tear, recover and quarantine — a sweep of quiet
// scenarios proves nothing.
func TestStoreChaosMatrix(t *testing.T) {
	h := getStoreHarness(t)
	scratch := t.TempDir()
	var torn, survivors, quarantined int
	for seed := int64(1); seed <= 24; seed++ {
		rep, err := h.RunStore(seed, scratch)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(rep)
		torn += rep.Scenario.tears()
		survivors += rep.Stats.Report.Entries
		quarantined += rep.Stats.Report.Quarantined
	}
	if torn == 0 {
		t.Error("no seed tore a write; widen the scenario space")
	}
	if survivors == 0 {
		t.Error("no seed recovered a single entry; the tear rates drown the signal")
	}
	if quarantined == 0 {
		t.Error("no seed quarantined a record; tears are not reaching disk")
	}
}

// TestStoreChaosConcurrent fans seeds out over goroutines, each in its
// own directory — the -race surface for the write-behind queue, worker
// and counters.
func TestStoreChaosConcurrent(t *testing.T) {
	h := getStoreHarness(t)
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(200 + i)
	}
	if err := h.RunStoreConcurrent(seeds, 4, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// FuzzStoreChaosInvariants lets the fuzzer search the seed space for a
// scenario where the store's recovery diverges from the mirror.
func FuzzStoreChaosInvariants(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(-7))
	f.Add(int64(1 << 33))
	f.Fuzz(func(t *testing.T, seed int64) {
		h := getStoreHarness(t)
		if _, err := h.RunStore(seed, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	})
}
