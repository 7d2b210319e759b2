package experiments

import (
	"fmt"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/sim"
)

// integritySpec corrupts every transfer with the given per-attempt
// probability; the fixed seed keeps the sweep deterministic.
func integritySpec(prob float64) *fault.Spec {
	if prob == 0 {
		return nil
	}
	return &fault.Spec{
		Seed:        7,
		Corruptions: []fault.CorruptionFault{{Match: "*", Probability: prob}},
	}
}

// Integrity prices detection overhead against silent exposure: the same
// Mobius step, swept over corruption rates with checksums off and on.
//
// With checksums off the step time barely moves — corruption is free to
// "deliver" — but every corrupted payload taints its transfer and,
// transitively, the computes consuming it: the run completes with a
// wrong answer. With checksums on, every transfer pays the per-byte
// verification cost and corrupted deliveries retransmit (bounded
// budget), so the step slows down but nothing silent survives; a
// transfer whose whole budget is corrupted halts the run with a
// structured error instead of producing garbage.
func Integrity() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m := model.GPT3B
	t := &Table{
		Title:  "Integrity: detection overhead vs silent exposure (3B, Topo 2+2)",
		Header: []string{"corruption", "checksums", "step (s)", "overhead", "retransmits", "silent", "tainted"},
	}
	sr := &stepRunner{}
	base := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo})
	baseStep := base.StepTime
	for _, prob := range []float64{0, 0.05, 0.2} {
		spec := integritySpec(prob)
		for _, checksums := range []bool{false, true} {
			var cs sim.ChecksumConfig
			label := "off"
			if checksums {
				cs = sim.ChecksumConfig{Enabled: true}
				label = "on"
			}
			r := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, Faults: spec, Checksums: cs})
			step, overhead := secs(r.StepTime), ratio(r.StepTime/baseStep)
			if r.Corruption != nil {
				step = fmt.Sprintf("halted@%.2f", r.StepTime)
				overhead = "-"
			}
			t.Add(fmt.Sprintf("%.0f%%", prob*100), label, step, overhead,
				fmt.Sprintf("%d", r.Integrity.Retransmits),
				fmt.Sprintf("%d", r.Integrity.SilentCorruptions),
				fmt.Sprintf("%d", r.Integrity.TaintedTasks))
		}
	}
	t.Note("checksums price an end-to-end CRC at ~25 GB/s per delivery attempt; detected")
	t.Note("corruptions retransmit (budget 2), an exhausted budget halts the step instead")
	t.Note("of completing wrong; without checksums, tainted counts finished tasks downstream")
	t.Note("of a silently corrupted transfer — work a real run would have to throw away")
	return sr.table(t)
}
