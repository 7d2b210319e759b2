package cluster

import (
	"testing"

	"mobius/internal/core"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// TestClusterDifferentialSingleJob holds the fleet simulator to the
// single-server truth: a one-server cluster must price a job's
// execution bitwise-identically to direct core.Run pricing of the same
// shape — N plain steps plus the checkpoint surcharge on every k-th.
// Any drift here means the fleet layer is inventing or losing time.
func TestClusterDifferentialSingleJob(t *testing.T) {
	const steps, every = 5, 2
	cl := Class{
		Name:            "solo",
		RatePerS:        0.05,
		Model:           model.GPT3B,
		PartitionAlgo:   partition.AlgoBalanced,
		BalancedStages:  4,
		StepsMin:        steps,
		StepsMax:        steps,
		CheckpointEvery: every,
	}
	cfg := Config{
		Servers:  1,
		Topology: topo22(),
		Classes:  []Class{cl},
		HorizonS: 200,
		Seed:     3,
		paranoid: true,
		Cache:    NewStepCache(), // cold: pricing happens inside this run
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Conservation(); err != nil {
		t.Fatal(err)
	}
	var done *JobRecord
	for i := range rep.Jobs {
		if rep.Jobs[i].Outcome == "completed" {
			done = &rep.Jobs[i]
			break
		}
	}
	if done == nil {
		t.Fatalf("no completed job in %+v", rep)
	}

	// The ground truth, priced directly through core.Run on the same
	// normalized options the cluster used.
	opts := classOptions(cfg, 0)
	plain, err := core.Run(core.SystemMobius, opts)
	if err != nil || plain.OOM {
		t.Fatalf("direct run: err=%v oom=%v", err, plain.OOM)
	}
	copts := opts
	copts.Checkpoint = checkpointWrite(opts.Model.ModelStatesBytes())
	ckpt, err := core.Run(core.SystemMobius, copts)
	if err != nil || ckpt.OOM {
		t.Fatalf("direct checkpointed run: err=%v oom=%v", err, ckpt.OOM)
	}

	want := float64(steps)*plain.StepTime + float64(steps/every)*(ckpt.StepTime-plain.StepTime)
	if done.ExecSeconds != want { // bitwise: both sides are the same float ops on the same sim output
		t.Fatalf("cluster priced job %d at %.17g s, direct core.Run pricing gives %.17g s",
			done.ID, done.ExecSeconds, want)
	}
	if done.End-done.Start <= want {
		t.Errorf("wall time %.6f does not include the planning latency on top of %.6f of execution",
			done.End-done.Start, want)
	}
}
