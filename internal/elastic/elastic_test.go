package elastic

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// nominalStep plans and simulates one nominal Mobius step, so tests can
// place failure onsets relative to the real step time instead of
// hard-coding seconds.
func nominalStep(t *testing.T, topo *hw.Topology) float64 {
	t.Helper()
	r, err := core.Run(core.SystemMobius, core.Options{Model: model.GPT3B, Topology: topo})
	if err != nil || r.OOM {
		t.Fatalf("nominal run: err=%v oom=%v", err, r.OOM)
	}
	return r.StepTime
}

// TestRecoveryAccountingIdentity is the acceptance criterion of the
// elastic subsystem: a gpu_fail mid-run completes via re-plan + resume,
// and the total time exceeds the fault-free run by exactly (checkpoint
// overhead + lost work since the last checkpoint + migration + re-plan
// overhead + slower survivor steps).
func TestRecoveryAccountingIdentity(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	step := nominalStep(t, topo)
	rep, err := Run(Config{
		Model:           model.GPT3B,
		Topology:        topo,
		Steps:           8,
		CheckpointEvery: 2,
		Policy:          PolicyReplan,
		Faults: &fault.Spec{
			GPUFails: []fault.GPUFailFault{{GPU: 1, At: 4.6 * step}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost == nil || rep.FailedStep == 0 {
		t.Fatalf("failure did not fire: %+v", rep)
	}
	if rep.Lost.Resource != "gpu1" {
		t.Fatalf("lost resource: %q", rep.Lost.Resource)
	}
	if rep.FailedStep < 2 || rep.FailedStep > 6 {
		t.Fatalf("onset at 4.6 steps landed in step %d", rep.FailedStep)
	}
	if rep.ResumeStep <= 0 || rep.ResumeStep >= rep.FailedStep {
		t.Fatalf("resume step %d not inside (0, %d)", rep.ResumeStep, rep.FailedStep)
	}
	if rep.ResumeStep%rep.CheckpointEvery != 0 {
		t.Fatalf("resume step %d not a checkpoint boundary", rep.ResumeStep)
	}
	if !reflect.DeepEqual(rep.SurvivorGPUs, []int{0, 2, 3}) {
		t.Fatalf("survivors: %v", rep.SurvivorGPUs)
	}

	// The accounting identity, both sides assembled from independent
	// simulations: TotalTime = DetectedAt + replan + migration + the
	// survivor tail, and it must decompose exactly into fault-free +
	// the five overhead terms.
	if diff := math.Abs(rep.TotalTime - rep.AccountedTotal()); diff > 1e-9*rep.TotalTime {
		t.Fatalf("accounting identity broken: total %.12f vs accounted %.12f (diff %g)",
			rep.TotalTime, rep.AccountedTotal(), diff)
	}
	if rep.TotalTime <= rep.FaultFreeTime {
		t.Fatalf("recovered run (%.3fs) not slower than fault-free (%.3fs)", rep.TotalTime, rep.FaultFreeTime)
	}
	for name, v := range map[string]float64{
		"lost work":     rep.LostWork,
		"migration":     rep.MigrationSeconds,
		"ckpt overhead": rep.CheckpointOverheadPre,
		"survivor step": rep.SurvivorStep,
		"detected at":   rep.DetectedAt,
	} {
		if v <= 0 {
			t.Errorf("%s should be positive, got %g", name, v)
		}
	}
	// Losing a GPU must not make steps faster.
	if rep.SurvivorStep < rep.PlainStep {
		t.Errorf("survivor step %.4fs faster than full-topology step %.4fs", rep.SurvivorStep, rep.PlainStep)
	}
	// The checkpoint write costs time, never saves it.
	if rep.CkptStep < rep.PlainStep {
		t.Errorf("checkpointed step %.4fs faster than plain step %.4fs", rep.CkptStep, rep.PlainStep)
	}
	if !strings.Contains(rep.String(), "policy=replan") {
		t.Errorf("report summary: %s", rep)
	}
}

// TestRecoveryMatrix exercises every policy against both permanent
// failure classes end-to-end (the check-recovery CI target runs this
// under -race): the run must complete, the accounting identity must hold,
// and recovery is never free.
func TestRecoveryMatrix(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	step := nominalStep(t, topo)
	fails := map[string]*fault.Spec{
		"gpu-fail":  {GPUFails: []fault.GPUFailFault{{GPU: 1, At: 2.5 * step}}},
		"link-fail": {LinkFails: []fault.LinkFailFault{{Link: "gpu2.link", At: 2.5 * step}}},
	}
	for _, policy := range Policies() {
		for name, spec := range fails {
			t.Run(string(policy)+"/"+name, func(t *testing.T) {
				rep, err := Run(Config{
					Model:           model.GPT3B,
					Topology:        topo,
					Steps:           6,
					CheckpointEvery: 2,
					Policy:          policy,
					Faults:          spec,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Lost == nil {
					t.Fatal("failure did not fire")
				}
				if diff := math.Abs(rep.TotalTime - rep.AccountedTotal()); diff > 1e-9*rep.TotalTime {
					t.Fatalf("accounting identity broken: %.12f vs %.12f", rep.TotalTime, rep.AccountedTotal())
				}
				if rep.TotalTime <= rep.FaultFreeTime {
					t.Fatalf("recovery was free: total %.3fs <= fault-free %.3fs", rep.TotalTime, rep.FaultFreeTime)
				}
				if policy == PolicyRestart {
					if rep.ResumeStep != 0 || rep.MigrationSeconds != 0 {
						t.Fatalf("restart must not resume or migrate: %+v", rep)
					}
				} else {
					if rep.ResumeStep == 0 {
						t.Fatalf("%s should resume from a checkpoint", policy)
					}
					if rep.MigrationSeconds <= 0 {
						t.Fatalf("%s should pay migration", policy)
					}
				}
			})
		}
	}
}

// TestRecoveryDeterministic replays the same recovery twice: everything
// except the wall-clock re-plan time, the totals included, must be
// bit-identical.
func TestRecoveryDeterministic(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	step := nominalStep(t, topo)
	cfg := Config{
		Model:           model.GPT3B,
		Topology:        topo,
		Steps:           6,
		CheckpointEvery: 2,
		Policy:          PolicyReplan,
		Faults: &fault.Spec{
			Seed:     7,
			GPUFails: []fault.GPUFailFault{{GPU: 1, At: 3.4 * step}},
			Transient: []fault.TransientFault{
				{Match: "*", Probability: 0.05, BackoffMS: 1},
			},
		},
	}
	// Everything simulated must be bit-identical; only ReplanSeconds is
	// wall-clock, and the totals leave it out.
	deterministic := func(r *RecoveryReport) []float64 {
		return []float64{
			r.PlainStep, r.CkptStep, r.FaultFreeTime, r.DetectedAt,
			r.MigrationSeconds, r.SurvivorStep, r.SurvivorCkptStep,
			r.LostWork, r.CheckpointOverheadPre, r.CheckpointOverheadPost,
			r.ResumePenalty, float64(r.FailedStep), float64(r.ResumeStep),
			r.TotalTime, r.Overhead(),
		}
	}
	var prev []float64
	for i := 0; i < 2; i++ {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := deterministic(rep)
		if i > 0 && !reflect.DeepEqual(got, prev) {
			t.Fatalf("recovery diverged across replays:\n%v\n%v", got, prev)
		}
		prev = got
	}
}

// TestRecoveryNoFailureWithinRun places the onset beyond the horizon of
// the run: the report is the fault-free timeline plus checkpoint
// insurance.
func TestRecoveryNoFailureWithinRun(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	rep, err := Run(Config{
		Model:           model.GPT3B,
		Topology:        topo,
		Steps:           2,
		CheckpointEvery: 1,
		Faults:          &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 0, At: 1e9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != nil || rep.FailedStep != 0 {
		t.Fatalf("failure beyond the run fired: %+v", rep)
	}
	if rep.TotalTime != 2*rep.CkptStep {
		t.Fatalf("fault-free timeline: total %.6f, want 2 x %.6f", rep.TotalTime, rep.CkptStep)
	}
	if math.Abs(rep.Overhead()-rep.CheckpointOverheadPre) > 1e-12*rep.TotalTime {
		t.Fatalf("overhead %.9f should be pure checkpoint insurance %.9f", rep.Overhead(), rep.CheckpointOverheadPre)
	}
}

// TestRecoveryNilFaults: no fault spec at all is a plain checkpointed
// run, not a panic.
func TestRecoveryNilFaults(t *testing.T) {
	rep, err := Run(Config{
		Model:           model.GPT3B,
		Topology:        hw.Commodity(hw.RTX3090Ti, 2, 2),
		Steps:           2,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != nil || rep.TotalTime <= 0 {
		t.Fatalf("fault-free run: %+v", rep)
	}
}

// TestRecoveryRejects pins the config validation errors.
func TestRecoveryRejects(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	base := Config{Model: model.GPT3B, Topology: topo, Steps: 4}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no-steps", func(c *Config) { c.Steps = 0 }, "steps must be positive"},
		{"bad-policy", func(c *Config) { c.Policy = "reboot" }, "unknown policy"},
		{"bad-dest", func(c *Config) { c.CheckpointDest = "tape" }, "unknown checkpoint destination"},
		{"two-permanents", func(c *Config) {
			c.Faults = &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 0, At: 1}, {GPU: 1, At: 2}}}
		}, "permanent failures declared"},
		{"windowed-links", func(c *Config) {
			c.Faults = &fault.Spec{
				GPUFails: []fault.GPUFailFault{{GPU: 0, At: 1}},
				Links:    []fault.LinkFault{{Link: "rc1", Multiplier: 0.5, Start: 1, End: 2}},
			}
		}, "windowed link faults"},
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

// TestRecoverySSDCheckpointCostsMore routes the snapshot to the NVMe tier:
// the checkpointed step and the migration must both be at least as
// expensive as over DRAM — SSD bandwidth is the narrowest link in the
// machine.
func TestRecoverySSDCheckpointCostsMore(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	step := nominalStep(t, topo)
	run := func(dest Dest) *RecoveryReport {
		rep, err := Run(Config{
			Model:           model.GPT3B,
			Topology:        topo,
			Steps:           4,
			CheckpointEvery: 1,
			CheckpointDest:  dest,
			Policy:          PolicyReplan,
			Faults:          &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 3, At: 2.5 * step}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	dram, ssd := run(DestDRAM), run(DestSSD)
	if ssd.CkptStep < dram.CkptStep {
		t.Fatalf("SSD checkpoint step %.4fs cheaper than DRAM %.4fs", ssd.CkptStep, dram.CkptStep)
	}
	if ssd.MigrationSeconds < dram.MigrationSeconds {
		t.Fatalf("SSD migration %.4fs cheaper than DRAM %.4fs", ssd.MigrationSeconds, dram.MigrationSeconds)
	}
}
