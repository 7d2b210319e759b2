package fault_test

// The fault matrix is the smoke test of the whole injection stack (the
// Makefile's check-faults target runs it under -race): link degradation
// windows, alone and combined, applied to Mobius and GPipe end-to-end
// through core.Run. The invariants are coarse on purpose — no errors, no panics,
// injection recorded, and a faulted run never finishes faster than the
// nominal one.

import (
	"context"
	"testing"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/profile"
)

func matrixSpecs() map[string]*fault.Spec {
	link := fault.LinkFault{Link: "rc0", Multiplier: 0.25, Start: 0, End: 2}
	return map[string]*fault.Spec{
		"link": {Links: []fault.LinkFault{link}},
		// An unbounded whole-run slowdown on one link beside a bounded
		// window on another: windows on different links overlap freely.
		"combined": {Links: []fault.LinkFault{
			{Link: "drambus", Multiplier: 0.5, Start: 0},
			{Link: "rc1", Multiplier: 0.25, Start: 0.5, End: 1.5},
		}},
	}
}

func TestFaultMatrix(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m := model.GPT3B
	for _, sys := range []core.System{core.SystemMobius, core.SystemGPipe} {
		nom, err := core.Run(sys, core.Options{Model: m, Topology: topo})
		if err != nil {
			t.Fatalf("%s nominal: %v", sys, err)
		}
		if nom.OOM {
			t.Fatalf("%s nominal: unexpected OOM", sys)
		}
		for name, spec := range matrixSpecs() {
			r, err := core.Run(sys, core.Options{Model: m, Topology: topo, Faults: spec})
			if err != nil {
				t.Fatalf("%s/%s: %v", sys, name, err)
			}
			if r.OOM {
				t.Fatalf("%s/%s: unexpected OOM (%s)", sys, name, r.OOMCause)
			}
			if r.FaultInjection == nil {
				t.Fatalf("%s/%s: injection not recorded", sys, name)
			}
			if r.StepTime < nom.StepTime-1e-9 {
				t.Errorf("%s/%s: faulted step %.4f faster than nominal %.4f", sys, name, r.StepTime, nom.StepTime)
			}
			if r.FaultInjection.LinkEvents == 0 {
				t.Errorf("%s/%s: no link events scheduled", sys, name)
			}
		}
	}
}

// TestFaultMatrixOversizedPlanReportsOOM drives a Mobius step whose plan
// cannot fit GPU memory (all of GPT-51B in one stage) through core.Run,
// nominal and faulted: each run must end in an OOM report, not an error,
// a panic or a deadlock.
func TestFaultMatrixOversizedPlanReportsOOM(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	giant := core.PlannerFunc(func(ctx context.Context, o core.Options) (*core.Plan, error) {
		prof, err := profile.Run(o.Model, o.Topology.GPUs[0].Spec, profile.Options{})
		if err != nil {
			return nil, err
		}
		part, err := partition.FromBoundaries(prof, []int{prof.NumLayers()}, "giant")
		if err != nil {
			return nil, err
		}
		m, err := mapping.Sequential(o.Topology, 1)
		if err != nil {
			return nil, err
		}
		return &core.Plan{Profile: prof, Partition: part, Mapping: m}, nil
	})
	for name, spec := range map[string]*fault.Spec{"nominal": nil, "link": matrixSpecs()["link"]} {
		r, err := core.Run(core.SystemMobius, core.Options{Model: model.GPT51B, Topology: topo, Planner: giant, Faults: spec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.OOM || r.StepTime != 0 {
			t.Fatalf("%s: one-stage 51B plan should report OOM, got oom=%v step=%g", name, r.OOM, r.StepTime)
		}
	}
}

// TestFaultMatrixDeterministic replays the combined scenario and requires
// bit-identical step times — the fault layer must not introduce any
// run-to-run nondeterminism.
func TestFaultMatrixDeterministic(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	spec := matrixSpecs()["combined"]
	var prev float64
	for i := 0; i < 2; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{Model: model.GPT3B, Topology: topo, Faults: spec})
		if err != nil || r.OOM {
			t.Fatalf("run %d: err=%v oom=%v", i, err, r.OOM)
		}
		if i > 0 && r.StepTime != prev {
			t.Fatalf("faulted replay diverged: %v vs %v", r.StepTime, prev)
		}
		prev = r.StepTime
	}
}
