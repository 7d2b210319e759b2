package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/model"
)

// restartConfig is a prewarmed fleet with one server bouncing mid-run.
func restartConfig(servers int, rf fault.ServerRestartFault) Config {
	cl := cheapClass("prod", 0, model.GPT3B, 0.08)
	cl.StepsMin, cl.StepsMax = 4, 6
	cl.CheckpointEvery = 2
	cfg := baseConfig(cl)
	cfg.Servers = servers
	cfg.QueueCap = 16
	cfg.Prewarm = true
	cfg.Faults = &fault.Spec{ServerRestarts: []fault.ServerRestartFault{rf}}
	return cfg
}

// TestClusterWarmRestartZeroSolves is the fleet-level warm-restart
// contract: a prewarmed fleet re-admits a bounced server with its plan
// cache warm, so the whole run — restart included — performs exactly
// one solve per server (the prewarm) and not one more.
func TestClusterWarmRestartZeroSolves(t *testing.T) {
	cfg := restartConfig(3, fault.ServerRestartFault{Server: 1, At: 100})
	rep := mustRun(t, cfg)
	if rep.ServerRestarts != 1 || rep.ServerFailures != 0 {
		t.Fatalf("restarts/failures = %d/%d, want 1/0", rep.ServerRestarts, rep.ServerFailures)
	}
	if rep.Completed == 0 {
		t.Fatalf("nothing completed: %+v", rep)
	}
	if rep.PlanSolves != uint64(cfg.Servers) {
		t.Errorf("fleet performed %d solves, want exactly %d (prewarm only: the warm restart re-solves nothing)",
			rep.PlanSolves, cfg.Servers)
	}
	// Work the bounced server held re-landed instead of failing.
	if rep.Failed != 0 {
		t.Errorf("warm bounce failed %d job(s): %+v", rep.Failed, rep)
	}
}

// TestClusterColdRestartResolves: the cold-start baseline. On a
// single-server fleet a cold bounce discards the prewarmed cache, so the
// next dispatch pays a fresh solve — strictly more solves than the warm
// bounce of the identical scenario.
func TestClusterColdRestartResolves(t *testing.T) {
	warm := restartConfig(1, fault.ServerRestartFault{Server: 0, At: 100})
	cold := restartConfig(1, fault.ServerRestartFault{Server: 0, At: 100, Cold: true})
	wrep := mustRun(t, warm)
	crep := mustRun(t, cold)
	if wrep.ServerRestarts != 1 || crep.ServerRestarts != 1 {
		t.Fatalf("restarts %d/%d, want 1/1", wrep.ServerRestarts, crep.ServerRestarts)
	}
	if wrep.PlanSolves != 1 {
		t.Errorf("warm bounce solved %d time(s), want the prewarm's 1", wrep.PlanSolves)
	}
	if crep.PlanSolves <= wrep.PlanSolves {
		t.Errorf("cold bounce solved %d time(s), want more than warm's %d", crep.PlanSolves, wrep.PlanSolves)
	}
	if crep.Completed == 0 {
		t.Errorf("cold-restarted fleet completed nothing: %+v", crep)
	}
}

// TestClusterRestartWithRealStore drives the end-to-end crash/restart
// path over a real on-disk planstore: prewarmed plans persist
// write-behind, the bounce closes and reopens the directory, and the
// rejoined server warm-starts from disk — zero incremental solves,
// asserted exactly. The cold variant wipes the directory and must
// re-solve.
func TestClusterRestartWithRealStore(t *testing.T) {
	warm := restartConfig(2, fault.ServerRestartFault{Server: 0, At: 100})
	warm.StoreRoot = t.TempDir()
	wrep := mustRun(t, warm)
	if wrep.PlanSolves != uint64(warm.Servers) {
		t.Errorf("warm disk restart: %d solves, want exactly %d (prewarm only)", wrep.PlanSolves, warm.Servers)
	}
	if wrep.ServerRestarts != 1 {
		t.Fatalf("ServerRestarts = %d, want 1", wrep.ServerRestarts)
	}
	// The persisted records exist per server.
	for i := 0; i < warm.Servers; i++ {
		files, err := filepath.Glob(filepath.Join(warm.StoreRoot, "server"+string(rune('0'+i)), "*.plan"))
		if err != nil || len(files) == 0 {
			t.Errorf("server %d persisted no records (%v)", i, err)
		}
	}

	cold := restartConfig(1, fault.ServerRestartFault{Server: 0, At: 100, Cold: true})
	cold.StoreRoot = t.TempDir()
	crep := mustRun(t, cold)
	if crep.PlanSolves <= 1 {
		t.Errorf("cold disk restart solved %d time(s), want more than the prewarm's 1", crep.PlanSolves)
	}
	// The wiped directory was rebuilt by the new incarnation's
	// write-behind persistence.
	files, err := filepath.Glob(filepath.Join(cold.StoreRoot, "server0", "*.plan"))
	if err != nil || len(files) == 0 {
		t.Errorf("cold-restarted server persisted nothing after rejoining (%v)", err)
	}
}

// TestClusterRestartCountsRetiredSolves: the report's plan totals span
// every incarnation of a server. A cold bounce without prewarm solves
// once before and once after; losing the first incarnation's counter
// would undercount.
func TestClusterRestartCountsRetiredSolves(t *testing.T) {
	cl := cheapClass("prod", 0, model.GPT3B, 0.08)
	cfg := baseConfig(cl)
	cfg.Servers = 1
	cfg.QueueCap = 16
	cfg.StoreRoot = t.TempDir()
	cfg.Faults = &fault.Spec{ServerRestarts: []fault.ServerRestartFault{{Server: 0, At: 150, Cold: true}}}
	rep := mustRun(t, cfg)
	if rep.PlanSolves < 2 {
		t.Errorf("cold bounce mid-run: %d total solves, want >= 2 (one per incarnation) — retired counters lost?",
			rep.PlanSolves)
	}
}

// TestClusterRestartBeforeDetect: a 0.5 s bounce, faster than the 2 s
// detection window. The restart re-routes the parked work itself and bumps the
// generation, so the stale detection must not mark the healthy rejoined
// server down or double-route anything (the paranoid audit would catch
// it).
func TestClusterRestartBeforeDetect(t *testing.T) {
	cfg := restartConfig(2, fault.ServerRestartFault{Server: 0, At: 100, RestartLatencyS: 0.5})
	rep := mustRun(t, cfg)
	if rep.ServerRestarts != 1 {
		t.Fatalf("ServerRestarts = %d, want 1", rep.ServerRestarts)
	}
	if rep.Failed != 0 {
		t.Errorf("sub-detection bounce failed %d job(s)", rep.Failed)
	}
	if rep.PlanSolves != uint64(cfg.Servers) {
		t.Errorf("%d solves, want %d", rep.PlanSolves, cfg.Servers)
	}
	// The rejoined server keeps serving: some job completed after the
	// bounce.
	after := false
	for _, j := range rep.Jobs {
		if j.Outcome == "completed" && j.End > 100 && j.Server == 0 {
			after = true
			break
		}
	}
	if !after {
		t.Errorf("server 0 completed nothing after rejoining")
	}
}

// TestClusterRestartDeterministicReplay: restart scenarios replay bit
// for bit, with and without a real disk store behind the caches.
func TestClusterRestartDeterministicReplay(t *testing.T) {
	mk := func(root string) Config {
		cfg := restartConfig(3, fault.ServerRestartFault{Server: 2, At: 80, Cold: true})
		cfg.Faults.ServerRestarts = append(cfg.Faults.ServerRestarts,
			fault.ServerRestartFault{Server: 0, At: 160})
		cfg.StoreRoot = root
		return cfg
	}
	a := mustRun(t, mk(t.TempDir()))
	b := mustRun(t, mk(t.TempDir()))
	inmem := mustRun(t, mk(""))
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("disk-backed replay diverged: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != inmem.Fingerprint() {
		t.Errorf("disk-backed and in-memory stores diverged: %s vs %s — the simulated intact store is not equivalent",
			a.Fingerprint(), inmem.Fingerprint())
	}
	if a.ServerRestarts != 2 {
		t.Errorf("ServerRestarts = %d, want 2", a.ServerRestarts)
	}
}

// TestClusterRestartValidation: the fleet rejects restart clauses it
// cannot honor.
func TestClusterRestartValidation(t *testing.T) {
	good := baseConfig(cheapClass("a", 0, model.GPT3B, 0.1))
	for name, mut := range map[string]func(*Config){
		"restart off-fleet": func(c *Config) {
			c.Faults = &fault.Spec{ServerRestarts: []fault.ServerRestartFault{{Server: 9, At: 1}}}
		},
		"restart past horizon": func(c *Config) {
			c.Faults = &fault.Spec{ServerRestarts: []fault.ServerRestartFault{{Server: 0, At: 1e9}}}
		},
		"restart of permanently failed server": func(c *Config) {
			c.Faults = &fault.Spec{
				ServerFails:    []fault.ServerFailFault{{Server: 0, At: 10}},
				ServerRestarts: []fault.ServerRestartFault{{Server: 0, At: 50}},
			}
		},
	} {
		cfg := good
		cfg.Classes = append([]Class(nil), good.Classes...)
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	// An unwritable store root is an infrastructure error, not a report.
	bad := baseConfig(cheapClass("a", 0, model.GPT3B, 0.1))
	f, err := os.CreateTemp(t.TempDir(), "file")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	bad.StoreRoot = f.Name() // a file, not a directory
	if _, err := Run(bad); err == nil {
		t.Error("store root colliding with a file accepted")
	}
}
