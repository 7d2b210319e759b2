package elastic

import (
	"math"
	"strings"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// TestRecoveryRollbackIdentity is the rollback acceptance criterion: a
// numeric anomaly at step A rolls back to the last checkpoint before A,
// pays the snapshot restore on the intact machine, re-executes — and the
// extended accounting identity (with the RollbackRestoreSeconds term)
// holds exactly.
func TestRecoveryRollbackIdentity(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	rep, err := Run(Config{
		Model:           model.GPT3B,
		Topology:        topo,
		Steps:           8,
		CheckpointEvery: 2,
		Policy:          PolicyRollback,
		AnomalyStep:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnomalyStep != 5 || rep.FailedStep != 5 || rep.StepsCompleted != 4 {
		t.Fatalf("anomaly bookkeeping wrong: %+v", rep)
	}
	if rep.ResumeStep != 4 {
		t.Fatalf("resume step %d, want 4 (last checkpoint before step 5)", rep.ResumeStep)
	}
	if rep.RollbackRestoreSeconds <= 0 {
		t.Fatalf("rollback restore should cost time, got %g", rep.RollbackRestoreSeconds)
	}
	// Nothing died: no re-plan, no migration-to-survivors, no slower steps.
	if rep.ReplanSeconds != 0 || rep.MigrationSeconds != 0 || rep.ResumePenalty != 0 {
		t.Fatalf("rollback must not pay permanent-failure terms: %+v", rep)
	}
	if rep.Lost != nil || len(rep.SurvivorGPUs) != 0 {
		t.Fatalf("rollback invented a resource loss: %+v", rep)
	}
	if diff := math.Abs(rep.TotalTime - rep.AccountedTotal()); diff > 1e-9*rep.TotalTime {
		t.Fatalf("extended accounting identity broken: total %.12f vs accounted %.12f (diff %g)",
			rep.TotalTime, rep.AccountedTotal(), diff)
	}
	if rep.TotalTime <= rep.FaultFreeTime {
		t.Fatalf("rollback was free: total %.3fs <= fault-free %.3fs", rep.TotalTime, rep.FaultFreeTime)
	}
	// Lost work is exactly the rolled-back step span (steps 5 back to 4).
	if want := 1 * rep.PlainStep; math.Abs(rep.LostWork-want) > 1e-9*want {
		t.Fatalf("lost work %.6f, want %.6f (one plain step)", rep.LostWork, want)
	}
	if s := rep.String(); !strings.Contains(s, "policy=rollback") || !strings.Contains(s, "roll back to step 4") {
		t.Errorf("report summary: %s", s)
	}
}

// TestRecoveryRollbackUncheckpointed prices the insurance-free case: with
// no checkpoints the rollback restarts from initial state — the restore
// is free but every completed step is lost work re-executed.
func TestRecoveryRollbackUncheckpointed(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	rep, err := Run(Config{
		Model:       model.GPT3B,
		Topology:    topo,
		Steps:       5,
		Policy:      PolicyRollback,
		AnomalyStep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumeStep != 0 || rep.RollbackRestoreSeconds != 0 {
		t.Fatalf("uncheckpointed rollback should restart from scratch for free: %+v", rep)
	}
	// Timeline: 3 steps to the anomaly + all 5 re-executed.
	if want := 8 * rep.PlainStep; math.Abs(rep.TotalTime-want) > 1e-9*want {
		t.Fatalf("total %.6f, want %.6f (3 lost + 5 re-executed steps)", rep.TotalTime, want)
	}
	if diff := math.Abs(rep.TotalTime - rep.AccountedTotal()); diff > 1e-9*rep.TotalTime {
		t.Fatalf("identity broken: %.12f vs %.12f", rep.TotalTime, rep.AccountedTotal())
	}
}

// TestRecoveryRollbackRejects pins the rollback-specific validation.
func TestRecoveryRollbackRejects(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	base := Config{Model: model.GPT3B, Topology: topo, Steps: 4}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"anomaly-without-policy", func(c *Config) { c.AnomalyStep = 2; c.Policy = PolicyReplan }, "requires policy rollback"},
		{"rollback-without-anomaly", func(c *Config) { c.Policy = PolicyRollback }, "needs an anomaly step"},
		{"anomaly-out-of-range", func(c *Config) { c.Policy = PolicyRollback; c.AnomalyStep = 9 }, "needs an anomaly step"},
		{"rollback-with-permanent", func(c *Config) {
			c.Policy = PolicyRollback
			c.AnomalyStep = 2
			c.Faults = &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 0, At: 1}}}
		}, "cannot be combined with permanent failures"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mut(&cfg)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
}

// TestChaosRollbackIdentity folds the elastic accounting identity into
// the chaos surface: seed-derived rollback scenarios must decompose
// TotalTime into the report's overhead terms exactly.
func TestChaosRollbackIdentity(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	for _, seed := range []int64{3, 7} {
		steps := 4 + int(seed%4)
		every := int(seed % 3) // 0 = uncheckpointed rollback
		rep, err := Run(Config{
			Model:           model.GPT3B,
			Topology:        topo,
			Steps:           steps,
			CheckpointEvery: every,
			Policy:          PolicyRollback,
			AnomalyStep:     1 + int(seed)%steps,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if diff := math.Abs(rep.TotalTime - rep.AccountedTotal()); diff > 1e-9*rep.TotalTime {
			t.Fatalf("seed %d: accounting identity broken: total %.12f vs accounted %.12f",
				seed, rep.TotalTime, rep.AccountedTotal())
		}
	}
}
