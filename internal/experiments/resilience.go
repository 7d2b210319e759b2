package experiments

import (
	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// resilienceSpec is the degradation scenario of the resilience
// experiment: the first root complex — the PCIe switch carrying all
// host and cross-complex traffic for half the GPUs — drops to 25% of
// the bandwidth the planner assumed, for the whole step.
func resilienceSpec() *fault.Spec {
	return &fault.Spec{
		Links: []fault.LinkFault{{Link: "rc0", Multiplier: 0.25, Start: 0}},
	}
}

// Resilience compares how Mobius and GPipe tolerate an unplanned
// bandwidth degradation on the 8-GPU topology: the same plans, replayed
// on a machine whose first root complex runs at a quarter of its nominal
// bandwidth.
//
// The two systems fail differently. GPipe keeps parameters resident, so
// a PCIe fault barely touches it — but its one-stage-per-GPU pipeline is
// bubble-bound and slow to begin with. Mobius' stage swaps ride the
// degraded link, so it gives back part of its advantage in exposed
// upload time; the resilience claim is that even then its absolute step
// time stays strictly below GPipe's — the optimized plan degrades, but
// never below the baseline it beat.
func Resilience() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	spec := resilienceSpec()
	t := &Table{
		Title:  "Resilience: rc0 at 25% bandwidth (Topo 4+4)",
		Header: []string{"model", "system", "nominal (s)", "degraded (s)", "slowdown"},
	}
	sr := &stepRunner{}
	for _, m := range []model.Config{model.GPT3B, model.GPT8B} {
		deg := map[core.System]float64{}
		for _, sys := range []core.System{core.SystemGPipe, core.SystemMobius} {
			nom := sr.run(sys, core.Options{Model: m, Topology: topo})
			faulted := sr.run(sys, core.Options{Model: m, Topology: topo, Faults: spec})
			if sr.err != nil {
				return nil, sr.err
			}
			if nom.OOM || faulted.OOM {
				t.Add(m.Name, string(sys), "OOM", "OOM", "-")
				continue
			}
			deg[sys] = faulted.StepTime
			t.Add(m.Name, string(sys), secs(nom.StepTime), secs(faulted.StepTime), ratio(faulted.StepTime/nom.StepTime))
		}
		if gp, mob := deg[core.SystemGPipe], deg[core.SystemMobius]; gp > 0 && mob > 0 && mob >= gp {
			t.Note("unexpected: degraded Mobius (%.2fs) lost its lead over degraded GPipe (%.2fs) on %s",
				mob, gp, m.Name)
		}
	}
	t.Note("faults are injected at replay time; both plans still assume nominal bandwidth")
	t.Note("resident parameters make GPipe nearly immune to PCIe faults, but bubble-bound;")
	t.Note("Mobius pays in exposed swap time yet keeps a strictly faster step")
	return sr.table(t)
}
