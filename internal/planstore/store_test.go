package planstore

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// testPlan builds the cheapest real, validated plan: balanced partition
// on the 2+2 commodity box, no MIP.
func testPlan(t testing.TB, m model.Config) (*core.Plan, *hw.Topology) {
	t.Helper()
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	plan, err := core.PlanMobius(core.Options{
		Model: m, Topology: topo,
		PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan, topo
}

// testKey derives a distinct, stable key from a label. The store never
// recomputes content keys, so any key is as good as the canonical one.
func testKey(label string) Key {
	return Key(sha256.Sum256([]byte(label)))
}

func testEntry(t testing.TB, m model.Config, label string) Entry {
	t.Helper()
	plan, topo := testPlan(t, m)
	return Entry{Key: testKey(label), Plan: plan, Topology: topo}
}

func openStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	e := testEntry(t, model.GPT3B, "roundtrip")
	rec, err := encodeRecord(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(rec, e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != e.Key {
		t.Fatalf("key did not round-trip: %s, want %s", got.Key, e.Key)
	}
	if err := got.Plan.Validate(got.Topology); err != nil {
		t.Fatalf("decoded plan fails validation: %v", err)
	}
	if got.Plan.PredictedStep != e.Plan.PredictedStep {
		t.Errorf("PredictedStep %g, want %g", got.Plan.PredictedStep, e.Plan.PredictedStep)
	}
	if len(got.Plan.Partition.Stages) != len(e.Plan.Partition.Stages) {
		t.Fatalf("%d stages, want %d", len(got.Plan.Partition.Stages), len(e.Plan.Partition.Stages))
	}
	for i, st := range e.Plan.Partition.Stages {
		if got.Plan.Partition.Stages[i].First != st.First || got.Plan.Partition.Stages[i].Last != st.Last {
			t.Errorf("stage %d boundaries [%d,%d], want [%d,%d]",
				i, got.Plan.Partition.Stages[i].First, got.Plan.Partition.Stages[i].Last, st.First, st.Last)
		}
	}
	for i, g := range e.Plan.Mapping.Perm {
		if got.Plan.Mapping.Perm[i] != g {
			t.Errorf("mapping perm[%d] = %d, want %d", i, got.Plan.Mapping.Perm[i], g)
		}
	}
	// The profile's layer handles carry an unexported model config JSON
	// cannot round-trip; decode must rebuild them from the model, so
	// per-layer pricing still works on the loaded plan.
	for i, ls := range got.Plan.Profile.Layers {
		if want := e.Plan.Profile.Layers[i].Layer.Params(); ls.Layer.Params() != want {
			t.Fatalf("rebuilt layer %d prices %d params, want %d", i, ls.Layer.Params(), want)
		}
	}
}

// TestLoadAcceptsRetiredKeys: a version-1 record may carry payload keys
// the format no longer declares — the model signature and the MIP
// warm-start stats of the retired incumbent warm start. Such a record
// must still load and validate, so a store written before their removal
// still restarts warm.
func TestLoadAcceptsRetiredKeys(t *testing.T) {
	e := testEntry(t, model.GPT3B, "retired-keys")
	rec, err := encodeRecord(e)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec[headerLen:], &body); err != nil {
		t.Fatal(err)
	}
	body["model_sig"] = json.RawMessage(`1234567890123456789`)
	body["mip_stats"] = json.RawMessage(`{"Nodes":3,"Proven":true,"WarmStart":true,"WarmWon":false}`)
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeRecord(t, dir, e.Key, frameRecord(e.Key, raw))
	entries, rep := loadDir(t, dir)
	if rep.Entries != 1 || rep.Quarantined != 0 || len(entries) != 1 {
		t.Fatalf("load %+v: the record with retired keys must load", rep)
	}
	got := entries[0]
	if err := got.Plan.Validate(got.Topology); err != nil {
		t.Fatalf("loaded plan fails validation: %v", err)
	}
	if ms := got.Plan.MIPStats; ms == nil || ms.Nodes != 3 || !ms.Proven {
		t.Errorf("MIPStats %+v: the declared fields must still decode", ms)
	}
	if got.Plan.PredictedStep != e.Plan.PredictedStep {
		t.Errorf("PredictedStep %g, want %g", got.Plan.PredictedStep, e.Plan.PredictedStep)
	}
}

func TestEncodeRejectsIncompletePlan(t *testing.T) {
	if _, err := encodeRecord(Entry{Key: testKey("nil")}); err == nil {
		t.Fatal("encoding a nil plan should fail")
	}
	e := testEntry(t, model.GPT3B, "incomplete")
	e.Plan = &core.Plan{Profile: e.Plan.Profile} // no partition, no mapping
	if _, err := encodeRecord(e); err == nil {
		t.Fatal("encoding an incomplete plan should fail")
	}
}

func TestStorePersistAndLoad(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	labels := []string{"alpha", "beta", "gamma"}
	for _, l := range labels {
		s.Put(testEntry(t, model.GPT3B, l))
	}
	s.Flush()
	if m := s.Metrics(); m.Persisted != 3 || m.WriteDrops != 0 || m.QueueDepth != 0 {
		t.Fatalf("after flush: %+v", m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory replays every record.
	s2 := openStore(t, Config{Dir: dir})
	entries, rep, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 3 || rep.Quarantined != 0 {
		t.Fatalf("load report %+v, want 3 entries, 0 quarantined", rep)
	}
	want := map[Key]bool{}
	for _, l := range labels {
		want[testKey(l)] = true
	}
	for _, e := range entries {
		if !want[e.Key] {
			t.Errorf("loaded unexpected key %s", e.Key)
		}
		delete(want, e.Key)
		if err := e.Plan.Validate(e.Topology); err != nil {
			t.Errorf("loaded plan %s invalid: %v", e.Key, err)
		}
	}
	if len(want) != 0 {
		t.Errorf("%d entr(ies) missing after load", len(want))
	}
	if m := s2.Metrics(); m.LoadedEntries != 3 || m.QuarantinedRecords != 0 {
		t.Errorf("load metrics %+v", m)
	}
}

// TestStoreLoadIsDeterministic: two replays of the same directory yield
// the same entries in the same order (sorted filenames).
func TestStoreLoadIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	for _, l := range []string{"d1", "d2", "d3", "d4"} {
		s.Put(testEntry(t, model.GPT3B, l))
	}
	s.Flush()
	a, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("replays loaded %d and %d entries, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("replay order diverged at %d: %s vs %s", i, a[i].Key, b[i].Key)
		}
		if i > 0 && !lessHex(a[i-1].Key, a[i].Key) {
			t.Fatalf("entries not in sorted key order at %d", i)
		}
	}
}

func lessHex(a, b Key) bool { return strings.Compare(a.String(), b.String()) < 0 }

// TestStoreDeleteCoherence: a delete enqueued after a put removes the
// record; a later load cannot resurrect it.
func TestStoreDeleteCoherence(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	keep := testEntry(t, model.GPT3B, "keep")
	drop := testEntry(t, model.GPT3B, "drop")
	s.Put(keep)
	s.Put(drop)
	s.Delete(drop.Key)
	s.Flush()
	if m := s.Metrics(); m.Persisted != 2 || m.Deletes != 1 {
		t.Fatalf("metrics %+v, want 2 persisted / 1 delete", m)
	}
	entries, rep, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || len(entries) != 1 || entries[0].Key != keep.Key {
		t.Fatalf("load %+v: the deleted entry must not come back", rep)
	}
	// Deleting an absent key is not an error (idempotent).
	s.Delete(testKey("never-existed"))
	s.Flush()
	if m := s.Metrics(); m.IOErrors != 0 {
		t.Fatalf("deleting an absent key counted an I/O error: %+v", m)
	}
}

// TestStoreQueueBound: puts drop at a full queue (counted, never
// blocking); deletes are exempt so eviction coherence always holds.
func TestStoreQueueBound(t *testing.T) {
	s, err := newStore(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// No worker yet: every operation stays queued.
	e := testEntry(t, model.GPT3B, "q")
	for i := 0; i <= queueDepth; i++ { // the last put finds the queue full
		e.Key[0], e.Key[1] = byte(i), byte(i>>8)
		s.Put(e)
	}
	s.Delete(testKey("q9")) // exempt from the bound
	m := s.Metrics()
	if m.WriteDrops != 1 {
		t.Errorf("WriteDrops = %d, want 1", m.WriteDrops)
	}
	if m.QueueDepth != queueDepth+1 { // every kept put and the delete
		t.Errorf("QueueDepth = %d, want %d", m.QueueDepth, queueDepth+1)
	}
	go s.worker()
	t.Cleanup(func() { s.Close() })
	s.Flush()
	if m := s.Metrics(); m.Persisted != queueDepth || m.Deletes != 1 || m.QueueDepth != 0 {
		t.Errorf("after drain: %+v", m)
	}
}

// TestStoreSurvivesIOErrors: when the directory stops being one, a put
// fails as a counted I/O error without stalling the worker, Load reports
// a directory-level error, and the store persists again once the
// directory is back.
func TestStoreSurvivesIOErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openStore(t, Config{Dir: dir})
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Put(testEntry(t, model.GPT3B, "lost"))
	s.Flush()
	if m := s.Metrics(); m.IOErrors != 1 || m.Persisted != 0 {
		t.Fatalf("metrics %+v, want one I/O error and nothing persisted", m)
	}
	if _, _, err := s.Load(); err == nil || !strings.HasPrefix(err.Error(), "planstore:") {
		t.Fatalf("Load over a regular file: err %v, want a planstore: error", err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s.Put(testEntry(t, model.GPT3B, "kept"))
	s.Flush()
	if m := s.Metrics(); m.IOErrors != 1 || m.Persisted != 1 {
		t.Fatalf("metrics %+v, want the next put persisted", m)
	}
}

// TestStoreTornWrite: a record torn on disk (a strict prefix on the
// final path, the crash temp+rename cannot absorb) is quarantined by a
// replay, and every intact sibling is kept.
func TestStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	intact := testEntry(t, model.GPT3B, "intact")
	torn := testEntry(t, model.GPT3B, "torn")
	s.Put(intact)
	s.Put(torn)
	s.Flush()
	if m := s.Metrics(); m.Persisted != 2 {
		t.Fatalf("metrics %+v, want both records persisted", m)
	}
	if err := os.Truncate(filepath.Join(dir, torn.Key.String()+recordExt), 100); err != nil {
		t.Fatal(err)
	}
	entries, rep, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || rep.Quarantined != 1 || entries[0].Key != intact.Key {
		t.Fatalf("load %+v: want the intact entry kept and the torn record quarantined", rep)
	}
	// The torn record was renamed aside, so the next replay is clean.
	_, rep2, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Entries != 1 || rep2.Quarantined != 0 {
		t.Fatalf("second load %+v: quarantine must stick", rep2)
	}
}

// TestStoreOverwriteSettlesLast: re-putting a key leaves exactly one
// record, decodable, with the last write's content.
func TestStoreOverwriteSettlesLast(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	e1 := testEntry(t, model.GPT3B, "samekey")
	e2 := testEntry(t, model.GPT8B, "otherplan")
	e2.Key = e1.Key
	s.Put(e1)
	s.Put(e2)
	s.Flush()
	entries, rep, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || entries[0].Plan.Profile.Model.Name != model.GPT8B.Name {
		t.Fatalf("load %+v (model %s): want the second write to win", rep, entries[0].Plan.Profile.Model.Name)
	}
}

// TestStoreClosedRejectsOps: operations after Close are silent no-ops.
func TestStoreClosedRejectsOps(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	s.Close()
	s.Close() // idempotent
	s.Put(testEntry(t, model.GPT3B, "late"))
	s.Delete(testKey("late"))
	if m := s.Metrics(); m.Persisted != 0 || m.Deletes != 0 || m.QueueDepth != 0 {
		t.Fatalf("a closed store performed work: %+v", m)
	}
}

// TestStoreConcurrentOps drives puts, deletes, flushes and metric
// snapshots from many goroutines; the race detector is the assertion.
func TestStoreConcurrentOps(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir()})
	e := testEntry(t, model.GPT3B, "base")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ent := e
				ent.Key[0] = byte(g)
				ent.Key[1] = byte(i)
				s.Put(ent)
				if i%3 == 0 {
					s.Delete(ent.Key)
				}
				s.Metrics()
				if i%7 == 0 {
					s.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Flush()
	if _, _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without a directory should fail")
	}
}

func TestKeyFromName(t *testing.T) {
	k := testKey("name")
	got, ok := keyFromName(k.String() + recordExt)
	if !ok || got != k {
		t.Fatalf("keyFromName round-trip failed: %v %v", got, ok)
	}
	for _, bad := range []string{
		"short" + recordExt,
		strings.Repeat("z", 64) + recordExt,
		strings.Repeat("A", 64) + recordExt, // uppercase is not canonical
	} {
		if _, ok := keyFromName(bad); ok {
			t.Errorf("keyFromName(%q) accepted", bad)
		}
	}
}
