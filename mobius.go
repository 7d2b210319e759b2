// Package mobius is a complete, pure-Go reproduction of "Mobius: Fine
// Tuning Large-Scale Models on Commodity GPU Servers" (ASPLOS 2023).
//
// It provides:
//
//   - a discrete-event simulator of commodity and data-center GPU
//     servers (PCIe topology, root-complex contention, NVLink, DRAM);
//   - the Mobius pipeline with heterogeneous memory, its MIP partition
//     algorithm (solved by a built-in simplex + branch-and-bound MILP
//     solver) and the PCIe-topology-aware cross mapping;
//   - the evaluated baselines: GPipe, DeepSpeed pipeline parallelism and
//     DeepSpeed ZeRO-3 with heterogeneous memory;
//   - a real (small) GPT training substrate demonstrating that the
//     Mobius execution order converges identically to GPipe's.
//
// Quick start:
//
//	topo := mobius.Commodity(mobius.RTX3090Ti, 2, 2) // "Topo 2+2"
//	report, err := mobius.Run(mobius.SystemMobius, mobius.Options{
//		Model:    mobius.GPT15B,
//		Topology: topo,
//	})
//	fmt.Println(report) // per-step time, traffic, overlap stats
//
// The benchmark suite at the repository root regenerates every table and
// figure of the paper's evaluation; see EXPERIMENTS.md.
package mobius

import (
	"context"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/trace"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// System identifies one of the four evaluated training systems.
	System = core.System
	// Options configures a planning + simulation run.
	Options = core.Options
	// StepReport is the measured outcome of one simulated training step.
	StepReport = core.StepReport
	// Plan is a Mobius execution plan (profile, partition, mapping).
	Plan = core.Plan
	// Topology describes a GPU server.
	Topology = hw.Topology
	// GPUSpec describes a GPU model.
	GPUSpec = hw.GPUSpec
	// ModelConfig describes a GPT-like workload (Table 3).
	ModelConfig = model.Config
	// CDF is a weighted cumulative distribution (bandwidth statistics).
	CDF = trace.CDF
	// FaultSpec is a declarative degraded-hardware scenario (link
	// bandwidth windows, silent data corruption, permanent GPU and link
	// failures) for Options.Faults.
	FaultSpec = fault.Spec
	// FaultInjection records an applied fault scenario and the
	// corruptions it injected.
	FaultInjection = fault.Injection
)

// The four systems of the paper's evaluation.
const (
	SystemMobius     = core.SystemMobius
	SystemGPipe      = core.SystemGPipe
	SystemDSPipeline = core.SystemDSPipeline
	SystemDSHetero   = core.SystemDSHetero
)

// Partition algorithms (Figure 9 ablation).
const (
	PartitionMIP      = partition.AlgoMIP
	PartitionMaxStage = partition.AlgoMaxStage
	PartitionMinStage = partition.AlgoMinStage
	PartitionBalanced = partition.AlgoBalanced
)

// Mapping schemes (Figure 10 ablation).
const (
	MappingCross      = mapping.SchemeCross
	MappingSequential = mapping.SchemeSequential
)

// GPU presets (Table 1 / §4 setup).
var (
	RTX3090Ti = hw.RTX3090Ti
	V100      = hw.V100
	A100      = hw.A100
)

// Model presets (Table 3).
var (
	GPT3B  = model.GPT3B
	GPT8B  = model.GPT8B
	GPT15B = model.GPT15B
	GPT51B = model.GPT51B
)

// Table3 lists the four evaluation models in paper order.
func Table3() []ModelConfig { return model.Table3() }

// Systems lists the four evaluated systems in the paper's order.
func Systems() []System { return core.Systems() }

// Commodity builds a commodity GPU server with the given GPUs-per-root-
// complex groups, e.g. Commodity(RTX3090Ti, 2, 2) for "Topo 2+2".
func Commodity(spec GPUSpec, groups ...int) *Topology { return hw.Commodity(spec, groups...) }

// DataCenter builds an NVLink + GPUDirect-P2P server in the style of an
// EC2 P3.8xlarge.
func DataCenter(spec GPUSpec, n int, nvlinkBW float64) *Topology {
	return hw.DataCenter(spec, n, nvlinkBW)
}

// Run plans (when needed) and simulates one training step of the given
// system on the configured model and topology.
func Run(system System, opts Options) (*StepReport, error) { return core.Run(system, opts) }

// RunCtx is Run honoring a context for the planning phase: a deadline
// that expires mid-planning fails the Mobius run with an error.
func RunCtx(ctx context.Context, system System, opts Options) (*StepReport, error) {
	return core.RunCtx(ctx, system, opts)
}

// PlanMobius profiles the model and computes the Mobius partition and
// mapping without running the simulation.
func PlanMobius(opts Options) (*Plan, error) { return core.PlanMobius(opts) }

// PlanMobiusCtx is PlanMobius honoring a context deadline; on expiry it
// returns no plan and an error that wraps the context's error.
func PlanMobiusCtx(ctx context.Context, opts Options) (*Plan, error) {
	return core.PlanMobiusCtx(ctx, opts)
}

// ParseFaultSpec decodes and validates a JSON fault spec (see the fault
// package for the format).
func ParseFaultSpec(data []byte) (*FaultSpec, error) { return fault.ParseJSON(data) }

// HourlyPrice returns the topology's rental price per hour (Figure 15b).
func HourlyPrice(topo *Topology) float64 { return core.HourlyPrice(topo) }

// PricePerStep converts a step time into dollars per training step.
func PricePerStep(topo *Topology, stepTime float64) float64 {
	return core.PricePerStep(topo, stepTime)
}

// GB is one gigabyte (1e9 bytes), re-exported for topology construction.
const GB = hw.GB
