// Package core is the top-level orchestration API of the Mobius
// reproduction: it profiles a model, plans a Mobius execution (MIP
// partition + cross mapping, §3.2-3.3), runs any of the four evaluated
// systems on a simulated topology, and returns a StepReport with the
// metrics every figure of the paper's evaluation is built from.
package core

import (
	"context"
	"fmt"
	"time"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/zero"
)

// System identifies one of the evaluated training systems.
type System string

// The four systems of the paper's evaluation (§4, Figure 5).
const (
	SystemMobius     System = "Mobius"
	SystemGPipe      System = "GPipe"
	SystemDSPipeline System = "DeepSpeed (pipeline)"
	SystemDSHetero   System = "DeepSpeed (hetero)"
)

// Related-work systems from §5, for the extended comparison.
const (
	// SystemZeROOffload replicates FP16 parameters on every GPU and
	// offloads gradients/optimizer to the CPU; model scale is bounded by
	// one GPU's memory.
	SystemZeROOffload System = "ZeRO-Offload"
	// SystemZeRONVMe is ZeRO-Infinity with parameter shards and
	// gradients on the NVMe tier.
	SystemZeRONVMe System = "ZeRO-Infinity (NVMe)"
)

// Systems lists all four in the paper's presentation order.
func Systems() []System {
	return []System{SystemGPipe, SystemDSPipeline, SystemDSHetero, SystemMobius}
}

// UsableMemFraction is the share of device memory available to the
// scheduler after CUDA context and allocator fragmentation overheads.
const UsableMemFraction = 0.92

// Options configure a planning + simulation run.
type Options struct {
	// Model is the workload (Table 3).
	Model model.Config
	// Topology is the simulated server.
	Topology *hw.Topology
	// Microbatches is M per training step; defaults to the GPU count,
	// as in the paper.
	Microbatches int
	// PartitionAlgo selects partition.AlgoMIP (default), AlgoMaxStage,
	// AlgoMinStage or AlgoBalanced (with BalancedStages).
	PartitionAlgo string
	// BalancedStages is the stage count for AlgoBalanced.
	BalancedStages int
	// MappingScheme selects mapping.SchemeCross (default) or
	// mapping.SchemeSequential.
	MappingScheme string
	// DisablePrefetchPriority turns off the paper's prefetch priority
	// policy (ablation).
	DisablePrefetchPriority bool
	// DisablePrefetch turns off stage prefetching entirely (ablation):
	// no communication/computation overlap.
	DisablePrefetch bool
	// MIP bounds the partition solver.
	MIP partition.MIPOptions
	// ProfileOptions control layer profiling.
	ProfileOptions profile.Options
	// Parallelism bounds the concurrent candidate MILPs of the MIP
	// stage-count sweep, when MIP.Parallelism is unset (0 means
	// GOMAXPROCS, 1 means one at a time after a two-wide root phase,
	// each only when the sweep waits on it; above 1, workers also solve
	// ahead of it). The sweep solves every candidate's root relaxation
	// two at a time before any branch and bound, and each MILP solves
	// the two child LPs of every node on a second goroutine, so a plan
	// may use up to 2 × Parallelism cores. Plans and their MIP effort
	// are identical at every level; the cross mapping search is always
	// serial.
	Parallelism int
	// Faults injects a degraded-hardware scenario into the simulated
	// server (Mobius and GPipe only; nil means nominal hardware). The
	// plan is still computed against the nominal topology — faults model
	// unplanned degradation, not a different machine.
	Faults *fault.Spec
	// Checkpoint, when non-nil, appends a periodic state snapshot to the
	// Mobius step (see pipeline.CheckpointWrite); ignored by the other
	// systems.
	Checkpoint *pipeline.CheckpointWrite
	// Checksums enables end-to-end transfer integrity for Mobius and
	// GPipe steps (see sim.ChecksumConfig): per-byte verification cost,
	// bounded retransmits for detected corruption, and a structured
	// sim.CorruptionError when the budget is exhausted.
	Checksums sim.ChecksumConfig
	// Planner, when non-nil, computes the Mobius plan in place of a
	// direct PlanMobiusCtx call: RunCtx routes planning through it, so
	// an experiment grid or an elastic run can share one caching
	// plansvc.Service. Plans are pure functions of the
	// planning inputs, so a correct Planner never changes results — only
	// cost and failure behavior.
	Planner Planner `json:"-"`
}

// Planner computes Mobius execution plans. The default is the direct,
// uncached PlanMobiusCtx; internal/plansvc implements Planner with a
// content-addressed cache and single-flight deduplication.
type Planner interface {
	PlanMobius(ctx context.Context, opts Options) (*Plan, error)
}

// PlannerFunc adapts a plain function to the Planner interface.
type PlannerFunc func(ctx context.Context, opts Options) (*Plan, error)

// PlanMobius implements Planner.
func (f PlannerFunc) PlanMobius(ctx context.Context, opts Options) (*Plan, error) {
	return f(ctx, opts)
}

// DefaultPlanner returns the direct planner backed by PlanMobiusCtx.
func DefaultPlanner() Planner { return PlannerFunc(PlanMobiusCtx) }

// planMobius routes planning through the configured Planner when set.
func planMobius(ctx context.Context, opts Options) (*Plan, error) {
	if opts.Planner != nil {
		return opts.Planner.PlanMobius(ctx, opts)
	}
	return PlanMobiusCtx(ctx, opts)
}

func (o Options) withDefaults() (Options, error) {
	if o.Topology == nil {
		return o, fmt.Errorf("core: topology is required")
	}
	if err := o.Model.Validate(); err != nil {
		return o, fmt.Errorf("core: %w", err)
	}
	if o.Microbatches <= 0 {
		o.Microbatches = o.Topology.NumGPUs()
	}
	if o.PartitionAlgo == "" {
		o.PartitionAlgo = partition.AlgoMIP
	}
	if o.MappingScheme == "" {
		o.MappingScheme = mapping.SchemeCross
	}
	return o, nil
}

// Normalized returns the options with every planning default applied
// (microbatches, partition algorithm, mapping scheme). The planning
// service canonicalizes requests through it, so a zero-valued field and
// its explicit default address the same cache entry.
func (o Options) Normalized() (Options, error) { return o.withDefaults() }

// PlanBandwidth returns the average effective transfer bandwidth B used
// by the partition MIP: the narrower of a GPU link and its root complex.
func PlanBandwidth(topo *hw.Topology) float64 {
	b := topo.GPUs[0].Spec.LinkBW
	for _, rc := range topo.RootComplexBW {
		if rc < b {
			b = rc
		}
	}
	return b
}

// Plan is a complete Mobius execution plan for a model on a topology.
type Plan struct {
	Profile   *profile.Profile
	Partition *partition.Partition
	Mapping   *mapping.Mapping
	// MIPStats is non-nil when the MIP partition algorithm ran.
	MIPStats *partition.MIPStats
	// CrossMapTime is the wall-clock time of the mapping search
	// (Figure 12's "cross mapping" overhead bar).
	CrossMapTime time.Duration
	// PredictedStep is the analytic step-time estimate of the partition
	// evaluator.
	PredictedStep float64
	// Fallback is true when the plan is the deterministic greedy floor
	// (GreedyPlan) rather than a solved plan; only the fleet's degrade
	// policy asks for one. A planning deadline never produces it.
	Fallback bool
	// FallbackReason describes why the floor was chosen.
	FallbackReason string
}

// Validate checks the plan is internally consistent and executable on the
// topology: the partition covers the profile's layers exactly, the
// mapping is a permutation of the GPUs sized for the stage count, and
// every stage's forward and backward footprint fits its GPU's usable
// memory. A nil error means the pipeline runner can execute the plan.
func (p *Plan) Validate(topo *hw.Topology) error {
	if p == nil {
		return fmt.Errorf("core: nil plan")
	}
	if p.Profile == nil || p.Partition == nil || p.Mapping == nil {
		return fmt.Errorf("core: incomplete plan (profile/partition/mapping missing)")
	}
	if topo == nil {
		return fmt.Errorf("core: topology is required")
	}
	if err := p.Partition.Validate(p.Profile); err != nil {
		return err
	}
	n := topo.NumGPUs()
	if len(p.Mapping.Perm) != n {
		return fmt.Errorf("core: mapping permutes %d GPUs, topology has %d", len(p.Mapping.Perm), n)
	}
	seen := make([]bool, n)
	for _, g := range p.Mapping.Perm {
		if g < 0 || g >= n || seen[g] {
			return fmt.Errorf("core: mapping %v is not a permutation of %d GPUs", p.Mapping.Perm, n)
		}
		seen[g] = true
	}
	if p.Mapping.NumStages != p.Partition.NumStages() {
		return fmt.Errorf("core: mapping scored for %d stages, partition has %d", p.Mapping.NumStages, p.Partition.NumStages())
	}
	for j, st := range p.Partition.Stages {
		gpu := p.Mapping.GPUOf(j)
		usable := topo.GPUMem(gpu) * UsableMemFraction
		if st.MemFwd() > usable || st.MemBwd() > usable {
			return fmt.Errorf("core: stage %d (fwd %.1f GB, bwd %.1f GB) exceeds usable memory %.1f GB on gpu %d",
				j, st.MemFwd()/1e9, st.MemBwd()/1e9, usable/1e9, gpu)
		}
	}
	return nil
}

// PlanMobius profiles the model and computes partition and mapping.
func PlanMobius(opts Options) (*Plan, error) {
	return PlanMobiusCtx(context.Background(), opts)
}

// PlanMobiusCtx is PlanMobius honoring a context deadline: when ctx is
// done before the MIP sweep and the cross mapping search complete, it
// returns no plan and an error that wraps both partition.ErrCancelled
// and ctx.Err(). A plan never depends on how fast the host ran: it is
// the full solve or nothing.
func PlanMobiusCtx(ctx context.Context, opts Options) (*Plan, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	prof, err := profile.Run(opts.Model, opts.Topology.GPUs[0].Spec, opts.ProfileOptions)
	if err != nil {
		return nil, err
	}
	params := planParams(prof, opts)

	plan := &Plan{Profile: prof}
	switch opts.PartitionAlgo {
	case partition.AlgoMIP:
		mipOpts := opts.MIP
		if mipOpts.Parallelism == 0 {
			mipOpts.Parallelism = opts.Parallelism
		}
		part, stats, err := partition.MIPCtx(ctx, params, mipOpts)
		if err != nil {
			return nil, err
		}
		plan.Partition, plan.MIPStats = part, stats
	case partition.AlgoMaxStage:
		plan.Partition, err = partition.MaxStage(params)
	case partition.AlgoMinStage:
		plan.Partition, err = partition.MinStage(params)
	case partition.AlgoBalanced:
		plan.Partition, err = partition.Balanced(params, opts.BalancedStages)
	default:
		return nil, fmt.Errorf("core: unknown partition algorithm %q", opts.PartitionAlgo)
	}
	if err != nil {
		return nil, err
	}

	start := time.Now()
	switch opts.MappingScheme {
	case mapping.SchemeCross:
		plan.Mapping, err = mapping.Cross(ctx, opts.Topology, plan.Partition.NumStages())
	case mapping.SchemeSequential:
		plan.Mapping, err = mapping.Sequential(opts.Topology, plan.Partition.NumStages())
	default:
		return nil, fmt.Errorf("core: unknown mapping scheme %q", opts.MappingScheme)
	}
	plan.CrossMapTime = time.Since(start)
	// The cross mapping search stops on the deadline too. A deadline that
	// expired after partitioning, in or after the mapping, cancels the
	// whole plan, as one that expires mid-sweep does.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %w", partition.ErrCancelled, cerr)
	}
	if err != nil {
		return nil, err
	}

	if t, err := partition.StepTime(params, plan.Partition); err == nil {
		plan.PredictedStep = t
	}
	return plan, nil
}

// planParams derives the partition search parameters from a profiled
// model and normalized options.
func planParams(prof *profile.Profile, opts Options) partition.Params {
	return partition.Params{
		Profile:      prof,
		NumGPUs:      opts.Topology.NumGPUs(),
		Microbatches: opts.Microbatches,
		GPUMem:       opts.Topology.GPUMem(0) * UsableMemFraction,
		Bandwidth:    PlanBandwidth(opts.Topology),
		Latency:      opts.Topology.TransferLatency,
	}
}

// GreedyPlan computes the deterministic degraded plan directly: greedy
// partition + sequential mapping, no solver involved. It is the fleet's
// greedy floor (internal/cluster degrades a job that queued past its
// class's DegradeAfterS to it); reason is recorded as the plan's
// FallbackReason.
func GreedyPlan(opts Options, reason string) (*Plan, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	prof, err := profile.Run(opts.Model, opts.Topology.GPUs[0].Spec, opts.ProfileOptions)
	if err != nil {
		return nil, err
	}
	params := planParams(prof, opts)
	part, err := partition.Greedy(params)
	if err != nil {
		return nil, err
	}
	mp, err := mapping.Sequential(opts.Topology, part.NumStages())
	if err != nil {
		return nil, err
	}
	plan := &Plan{Profile: prof, Partition: part, Mapping: mp, Fallback: true, FallbackReason: reason}
	if t, err := partition.StepTime(params, part); err == nil {
		plan.PredictedStep = t
	}
	return plan, nil
}

// StepReport is the measured outcome of simulating one training step: the
// builder's pipeline.Result plus what core adds, the system label, the
// workload, the plan and the step's traffic. The bandwidth CDFs and the
// overlap fraction are methods of the embedded Result, computed when
// read.
type StepReport struct {
	pipeline.Result

	System   System
	Model    model.Config
	Topology *hw.Topology
	// Plan holds the Mobius plan when System == SystemMobius.
	Plan *Plan

	// TrafficBytes is the total data moved during the step (Figure 6).
	TrafficBytes float64
}

// Run plans (when needed) and simulates one training step of the given
// system.
func Run(system System, opts Options) (*StepReport, error) {
	return RunCtx(context.Background(), system, opts)
}

// RunCtx is Run honoring a context for the planning phase: a deadline
// that expires mid-planning fails the Mobius run with PlanMobiusCtx's
// cancellation error.
func RunCtx(ctx context.Context, system System, opts Options) (*StepReport, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	report := &StepReport{System: system, Model: opts.Model, Topology: opts.Topology}

	if !opts.Faults.Empty() && system != SystemMobius && system != SystemGPipe {
		return nil, fmt.Errorf("core: fault injection is only supported for %s and %s (got %s)", SystemMobius, SystemGPipe, system)
	}
	if opts.Checksums.Enabled && system != SystemMobius && system != SystemGPipe {
		return nil, fmt.Errorf("core: end-to-end checksums are only supported for %s and %s (got %s)", SystemMobius, SystemGPipe, system)
	}

	// Heterogeneous-memory systems keep the full model states in DRAM;
	// the paper assumes pretrained models fit there (§3.1).
	if states := opts.Model.ModelStatesBytes(); states > opts.Topology.DRAMBytes {
		return nil, fmt.Errorf("core: model states (%.0f GB) exceed DRAM capacity (%.0f GB)",
			states/1e9, opts.Topology.DRAMBytes/1e9)
	}

	// The baselines all run on the model's profile on this GPU; Mobius
	// profiles inside its planner.
	var prof *profile.Profile
	if system != SystemMobius {
		if prof, err = profile.Run(opts.Model, opts.Topology.GPUs[0].Spec, opts.ProfileOptions); err != nil {
			return nil, err
		}
	}
	var res *pipeline.Result
	switch system {
	case SystemMobius:
		if report.Plan, err = planMobius(ctx, opts); err != nil {
			return nil, err
		}
		var st *pipeline.MobiusStep
		if st, err = pipeline.BuildMobius(opts.Topology, pipeline.MobiusConfig{
			Partition:               report.Plan.Partition,
			Mapping:                 report.Plan.Mapping,
			Microbatches:            opts.Microbatches,
			DisablePrefetchPriority: opts.DisablePrefetchPriority,
			DisablePrefetch:         opts.DisablePrefetch,
			Checkpoint:              opts.Checkpoint,
		}); err != nil {
			return nil, err
		}
		res, err = st.Run(opts.Faults, opts.Checksums)
	case SystemGPipe:
		res, err = pipeline.RunGPipe(opts.Topology, pipeline.GPipeConfig{Profile: prof, Microbatches: opts.Microbatches, Faults: opts.Faults, Checksums: opts.Checksums})
	case SystemDSPipeline:
		// DeepSpeed's pipeline mode keeps all model states in GPU memory;
		// it shares GPipe's execution model and OOM behaviour (§4,
		// "Baselines").
		res, err = pipeline.RunGPipe(opts.Topology, pipeline.GPipeConfig{Profile: prof, Microbatches: opts.Microbatches})
	case SystemDSHetero:
		res, err = zero.Run(opts.Topology, zero.Config{Profile: prof})
	case SystemZeROOffload:
		res, err = zero.RunOffload(opts.Topology, zero.Config{Profile: prof})
	case SystemZeRONVMe:
		topo := opts.Topology
		if !topo.HasSSD() {
			// Attach the default commodity NVMe tier; ZeRO-Infinity's
			// defining trait is offloading to it.
			clone := *topo
			topo = (&clone).WithSSD(hw.CommoditySSDBW, hw.CommoditySSDBytes)
		}
		res, err = zero.RunInfinityNVMe(topo, zero.Config{Profile: prof})
	default:
		return nil, fmt.Errorf("core: unknown system %q", system)
	}
	if err != nil {
		return nil, err
	}

	fillReport(report, res)
	return report, nil
}

// fillReport embeds a pipeline result in a step report and sums the
// step's traffic.
func fillReport(report *StepReport, res *pipeline.Result) {
	report.Result = *res
	if !res.OOM && res.Recorder != nil {
		report.TrafficBytes = res.Recorder.TotalBytes(nil)
	}
}

func (r *StepReport) String() string {
	if r.OOM {
		return fmt.Sprintf("%-22s %-4s %-10s OOM", r.System, r.Model.Name, r.Topology.Name)
	}
	return fmt.Sprintf("%-22s %-4s %-10s %8.2fs/step  %7.1f GB moved  %4.0f%% comm exposed",
		r.System, r.Model.Name, r.Topology.Name, r.StepTime, r.TrafficBytes/1e9, r.NonOverlapFraction()*100)
}
