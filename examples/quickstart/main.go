// Quickstart: plan and simulate one Mobius fine-tuning step of the 15B
// model on a commodity 4x3090-Ti server ("Topo 2+2").
package main

import (
	"fmt"
	"log"

	"mobius"
)

func main() {
	topo := mobius.Commodity(mobius.RTX3090Ti, 2, 2)

	// Plan: profile the model, solve the MIP partition, search the cross
	// mapping.
	plan, err := mobius.PlanMobius(mobius.Options{Model: mobius.GPT15B, Topology: topo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %d stages over %d GPUs (%s partition, %s mapping)\n",
		plan.Partition.NumStages(), topo.NumGPUs(),
		plan.Partition.Algorithm, plan.Mapping.Scheme)
	fmt.Printf("predicted step time: %.2fs\n\n", plan.PredictedStep)

	// Simulate one training step and report what the paper measures.
	report, err := mobius.Run(mobius.SystemMobius, mobius.Options{Model: mobius.GPT15B, Topology: topo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	fmt.Printf("median transfer bandwidth: %.1f GB/s\n", report.BandwidthCDF().Median()/1e9)
	fmt.Printf("price: $%.5f per step on this server\n", mobius.PricePerStep(topo, report.StepTime))
}
