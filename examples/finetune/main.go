// Finetune: decide how to fine-tune a large model on the hardware you
// have. Compares all four systems of the paper on a commodity server,
// then prices the job.
//
// This is the workload of the paper's introduction: a practitioner with
// a cheap multi-GPU box wants to fine-tune a published 15B checkpoint.
package main

import (
	"fmt"
	"log"

	"mobius"
)

func main() {
	topo := mobius.Commodity(mobius.RTX3090Ti, 2, 2)
	m := mobius.GPT15B
	fmt.Printf("fine-tuning %s on %s\n\n", m, topo)

	const stepsNeeded = 20000 // a typical fine-tuning run

	fmt.Printf("%-22s %10s %14s %12s\n", "system", "s/step", "job duration", "job cost")
	var best *mobius.StepReport
	for _, sys := range mobius.Systems() {
		r, err := mobius.Run(sys, mobius.Options{Model: m, Topology: topo})
		if err != nil {
			log.Fatal(err)
		}
		if r.OOM {
			fmt.Printf("%-22s %10s\n", sys, "OOM")
			continue
		}
		hours := r.StepTime * stepsNeeded / 3600
		cost := mobius.PricePerStep(topo, r.StepTime) * stepsNeeded
		fmt.Printf("%-22s %10.2f %11.1f h  $%10.0f\n", sys, r.StepTime, hours, cost)
		if best == nil || r.StepTime < best.StepTime {
			best = r
		}
	}

	fmt.Printf("\nbest: %s at %.2f s/step\n", best.System, best.StepTime)
	if best.Plan != nil {
		fmt.Printf("plan: %d stages, mapping %v\n", best.Plan.Partition.NumStages(), best.Plan.Mapping.Perm)
	}
	fmt.Printf("communication exposed (not hidden by compute): %.0f%%\n", best.NonOverlapFraction()*100)
}
