package plansvc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/planstore"
)

// storeAt opens a planstore on dir and registers its drain on cleanup.
func storeAt(t *testing.T, dir string) *planstore.Store {
	t.Helper()
	st, err := planstore.Open(planstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestWarmRestartZeroSolves is the headline restart contract: a service
// restarted over its persisted store serves every previously-solved
// shape from the warm cache — the incremental solve count is exactly
// zero, asserted per request and in total.
func TestWarmRestartZeroSolves(t *testing.T) {
	dir := t.TempDir()
	shapes := []core.Options{
		balancedOpts(model.GPT3B),
		balancedOpts(model.GPT8B),
		{Model: model.GPT3B, Topology: hw.Commodity(hw.RTX3090Ti, 4),
			PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4},
	}

	st1 := storeAt(t, dir)
	svc1 := New(Config{Store: st1})
	for _, o := range shapes {
		if _, err := svc1.PlanMobius(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc1.Metrics(); m.Solves != uint64(len(shapes)) {
		t.Fatalf("first life solved %d, want %d", m.Solves, len(shapes))
	}
	if err := st1.Close(); err != nil { // drain the write-behind queue
		t.Fatal(err)
	}

	st2 := storeAt(t, dir)
	svc2 := New(Config{Store: st2})
	m := svc2.Metrics()
	if m.WarmStartEntries != uint64(len(shapes)) || m.CacheEntries != uint64(len(shapes)) {
		t.Fatalf("restart adopted %d entries (%d live), want %d", m.WarmStartEntries, m.CacheEntries, len(shapes))
	}
	for _, o := range shapes {
		key, err := KeyOf(o)
		if err != nil {
			t.Fatal(err)
		}
		if !svc2.Has(key) {
			t.Fatalf("restarted service does not hold %s", key)
		}
		before := svc2.Metrics().Solves
		p, err := svc2.PlanMobius(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(o.Topology); err != nil {
			t.Fatalf("warm-served plan invalid: %v", err)
		}
		if after := svc2.Metrics().Solves; after != before {
			t.Fatalf("warm restart re-solved a persisted shape (%d -> %d)", before, after)
		}
	}
	m = svc2.Metrics()
	if m.Solves != 0 {
		t.Fatalf("restarted service solved %d time(s), want exactly 0", m.Solves)
	}
	if m.Hits != uint64(len(shapes)) || m.WarmHits != uint64(len(shapes)) {
		t.Fatalf("Hits/WarmHits = %d/%d, want %d/%d", m.Hits, m.WarmHits, len(shapes), len(shapes))
	}
	checkConservation(t, m)
	if err := svc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateDropCoherence: a cached entry that fails Plan.Validate on
// a hit is dropped from memory and its record deleted from the store, so
// a restart does not bring it back. The dropping request runs past its
// deadline, so it fails and nothing re-persists the key.
func TestValidateDropCoherence(t *testing.T) {
	dir := t.TempDir()
	st1 := storeAt(t, dir)
	svc1 := New(Config{Store: st1})
	victim := balancedOpts(model.GPT3B)
	keep := balancedOpts(model.GPT8B)
	for _, o := range []core.Options{victim, keep} {
		if _, err := svc1.PlanMobius(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	vkey, err := KeyOf(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the victim in memory: break the layer coverage invariant.
	svc1.mu.Lock()
	e := svc1.cache[vkey]
	corrupt := *e.plan
	part := *corrupt.Partition
	part.Stages = part.Stages[:len(part.Stages)-1]
	corrupt.Partition = &part
	e.plan = &corrupt
	svc1.mu.Unlock()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if plan, err := svc1.PlanMobius(dead, victim); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context request after the drop: plan %v, error %v; want context.Canceled", plan, err)
	}
	if m := svc1.Metrics(); m.ValidateDrops != 1 || m.CacheEntries != 1 {
		t.Fatalf("ValidateDrops=%d CacheEntries=%d, want 1/1", m.ValidateDrops, m.CacheEntries)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if sm := svc1.StoreMetrics(); sm.Persisted != 2 || sm.Deletes != 1 {
		t.Fatalf("store persisted %d and deleted %d, want 2/1", sm.Persisted, sm.Deletes)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(files) != 1 {
		t.Fatalf("%d record(s) on disk, want 1 (%v)", len(files), err)
	}

	st2 := storeAt(t, dir)
	svc2 := New(Config{Store: st2})
	if m := svc2.Metrics(); m.WarmStartEntries != 1 {
		t.Fatalf("restart adopted %d entries, want 1", m.WarmStartEntries)
	}
	if svc2.Has(vkey) {
		t.Fatal("the dropped entry came back after the restart")
	}
	kkey, err := KeyOf(keep)
	if err != nil {
		t.Fatal(err)
	}
	if !svc2.Has(kkey) {
		t.Fatal("the intact entry was lost across the restart")
	}
}

// TestCorruptStoreDegradesGracefully: damage in the directory costs only
// the damaged records — the service starts, adopts the intact ones, and
// reports the quarantine through its store metrics.
func TestCorruptStoreDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	st1 := storeAt(t, dir)
	svc1 := New(Config{Store: st1})
	opts := balancedOpts(model.GPT3B)
	if _, err := svc1.PlanMobius(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = 'c'
	}
	if err := os.WriteFile(filepath.Join(dir, string(junk)+".plan"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := storeAt(t, dir)
	svc2 := New(Config{Store: st2})
	m := svc2.Metrics()
	if m.WarmStartEntries != 1 {
		t.Fatalf("adopted %d entries, want the 1 intact record", m.WarmStartEntries)
	}
	sm := svc2.StoreMetrics()
	if sm == nil || sm.QuarantinedRecords != 1 || sm.LoadedEntries != 1 {
		t.Fatalf("store metrics %+v, want 1 loaded / 1 quarantined", sm)
	}
	key, err := KeyOf(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !svc2.Has(key) {
		t.Fatal("intact entry not adopted")
	}
}

// TestMetricsEndpointExposesStore: /v1/metrics carries the store health
// block when persistence is configured, and omits it when not.
func TestMetricsEndpointExposesStore(t *testing.T) {
	dir := t.TempDir()
	st := storeAt(t, dir)
	svc := New(Config{Store: st})
	if _, err := svc.PlanMobius(context.Background(), balancedOpts(model.GPT3B)); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Solves uint64 `json:"Solves"`
		Store  *struct {
			Persisted     uint64 `json:"persisted"`
			QueueDepth    int    `json:"queue_depth"`
			LoadedEntries uint64 `json:"loaded_entries"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Store == nil {
		t.Fatal("metrics response has no store block")
	}
	if body.Store.Persisted != 1 {
		t.Fatalf("store.persisted = %d, want 1", body.Store.Persisted)
	}

	// Without a store the block is omitted entirely.
	srv2 := httptest.NewServer(New(Config{}).Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["store"]; ok {
		t.Fatal("store block present without a configured store")
	}
}
