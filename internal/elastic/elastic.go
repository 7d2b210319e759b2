// Package elastic closes the fault → detect → checkpoint → re-plan →
// migrate → resume loop on the simulated hardware. A multi-step training
// run is priced step by step; when a permanent failure (fault.Spec's
// gpu_fail/link_fail) halts a step with a sim.ResourceLostError, the run
// recovers onto the surviving topology under one of three policies and the
// RecoveryReport decomposes the total overhead into checkpoint writes,
// lost work, re-planning, state migration, and slower survivor steps —
// the checkpoint-interval vs. recovery-cost trade-off the experiment
// sweeps.
package elastic

import (
	"fmt"
	"strings"
	"time"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/pipeline"
	"mobius/internal/sim"
)

// Policy selects how the run recovers after a permanent failure.
type Policy string

// Recovery policies of the experiment: restart-from-scratch,
// resume-same-plan (keep the partition, remap stages sequentially onto the
// survivors), and elastic re-plan (full MIP + cross mapping on the
// surviving topology).
const (
	PolicyRestart Policy = "restart"
	PolicyResume  Policy = "resume"
	PolicyReplan  Policy = "replan"
)

// PolicyRollback prices recovery from a *numeric* failure rather than a
// lost resource: the training guard (train.Guard) rejects the step named
// by Config.AnomalyStep, the run restores the last good checkpoint on
// the same, fully intact machine, and re-executes from there. The
// restore cost is the report's RollbackRestoreSeconds term (see
// rollback.go); no re-plan or migration-to-survivors is involved.
const PolicyRollback Policy = "rollback"

// Policies lists the permanent-failure recovery policies in presentation
// order (PolicyRollback is separate: it recovers from anomalies, not
// lost resources, and is selected together with Config.AnomalyStep).
func Policies() []Policy { return []Policy{PolicyRestart, PolicyResume, PolicyReplan} }

// Dest selects where periodic checkpoints are written.
type Dest string

// Checkpoint destinations: a second DRAM region (over the DRAM bus) or
// the NVMe tier.
const (
	DestDRAM Dest = "dram"
	DestSSD  Dest = "ssd"
)

// Config describes one elastic training run.
type Config struct {
	Model    model.Config
	Topology *hw.Topology
	// Steps is the number of training steps, numbered 1..Steps.
	Steps int
	// CheckpointEvery writes a consistent state snapshot after every
	// k-th step (0 disables checkpointing). PolicyRestart ignores it —
	// restart-from-scratch is the no-checkpoint baseline.
	CheckpointEvery int
	// CheckpointDest routes snapshot writes (default DestDRAM). DestSSD
	// attaches the default commodity NVMe tier when the topology lacks
	// one.
	CheckpointDest Dest
	// Faults is the fault scenario. At most one permanent failure is
	// supported; its onset is in global run time. The other clauses
	// hold for every step (windowed link faults are rejected for
	// multi-step runs — their windows are in single-step time).
	Faults *fault.Spec
	// Policy selects the recovery strategy (default PolicyReplan).
	Policy Policy
	// AnomalyStep, with PolicyRollback, is the 1-based step whose result
	// the numeric guard rejects; the run rolls back to the last
	// checkpoint before it. Mutually exclusive with permanent failures.
	AnomalyStep int
}

// RecoveryReport prices one elastic run. All durations are simulated
// seconds except ReplanSeconds, which is measured planner wall-clock time
// (the one nondeterministic field). It is reported next to the simulated
// timeline, as Fig 12 reports planning time, and is not part of
// TotalTime.
type RecoveryReport struct {
	Policy          Policy
	Steps           int
	CheckpointEvery int
	// CheckpointBytes is the snapshot size (fp32 masters + optimizer
	// state).
	CheckpointBytes float64
	CheckpointDest  Dest

	// PlainStep and CkptStep are the step times on the full topology
	// without and with the checkpoint write appended.
	PlainStep float64
	CkptStep  float64
	// FaultFreeTime is Steps * PlainStep — the no-fault, no-checkpoint
	// baseline every overhead below is charged against.
	FaultFreeTime float64

	// Failure describes the permanent failure; empty when none fired
	// within the run (the report is then the fault-free timeline).
	Failure string
	// FailedStep is the 1-based step the onset landed in (0 when none).
	FailedStep int
	// Lost is the structured detection event from the simulator.
	Lost *sim.ResourceLostError
	// DetectedAt is the global run time of detection.
	DetectedAt float64
	// StepsCompleted counts fully completed steps before the failure.
	StepsCompleted int
	// ResumeStep is the last checkpointed step (0 = initial state); the
	// run re-executes steps ResumeStep+1..Steps on the survivors.
	ResumeStep int

	// SurvivorGPUs maps old GPU ids of the survivors (ascending).
	SurvivorGPUs []int
	// SurvivorStep and SurvivorCkptStep are the re-planned step times on
	// the surviving topology.
	SurvivorStep     float64
	SurvivorCkptStep float64
	// ReplanSeconds is the wall-clock planning time of the recovery
	// plan, outside TotalTime.
	ReplanSeconds float64
	// MigrationBytes/MigrationSeconds price restoring the last snapshot
	// into a consistent DRAM image for the new stage layout.
	MigrationBytes   float64
	MigrationSeconds float64

	// AnomalyStep is the guard-rejected step of a rollback run (0
	// otherwise); RollbackRestoreSeconds prices re-loading the last good
	// checkpoint on the intact machine (see rollback.go).
	AnomalyStep            int
	RollbackRestoreSeconds float64

	// Overhead decomposition against FaultFreeTime; see AccountedTotal.
	CheckpointOverheadPre  float64
	LostWork               float64
	ResumePenalty          float64
	CheckpointOverheadPost float64

	// TotalTime is the simulated end-to-end run time including
	// recovery.
	TotalTime float64
}

// Overhead is the total cost of the failure plus the checkpoint insurance,
// relative to the fault-free uncheckpointed run.
func (r *RecoveryReport) Overhead() float64 { return r.TotalTime - r.FaultFreeTime }

// AccountedTotal recomposes TotalTime from the report's overhead terms:
//
//	FaultFreeTime + CheckpointOverheadPre + LostWork + MigrationSeconds +
//	ResumePenalty + CheckpointOverheadPost + RollbackRestoreSeconds
//
// It must equal TotalTime to floating-point accuracy — the accounting
// identity the recovery tests assert. Every term is simulated, so the
// identity and TotalTime are deterministic; the wall-clock ReplanSeconds
// stays outside. The rollback term is zero except under PolicyRollback,
// where migration/resume terms are zero in turn (the machine is intact).
func (r *RecoveryReport) AccountedTotal() float64 {
	return r.FaultFreeTime + r.CheckpointOverheadPre + r.LostWork +
		r.MigrationSeconds + r.ResumePenalty + r.CheckpointOverheadPost +
		r.RollbackRestoreSeconds
}

func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elastic recovery (policy=%s):\n", r.Policy)
	fmt.Fprintf(&b, "  %d steps, checkpoint every %s to %s (%.1f GB)\n",
		r.Steps, everyLabel(r.CheckpointEvery), r.CheckpointDest, r.CheckpointBytes/1e9)
	fmt.Fprintf(&b, "  fault-free: %d x %.3fs = %.3fs", r.Steps, r.PlainStep, r.FaultFreeTime)
	if r.CkptStep > r.PlainStep {
		fmt.Fprintf(&b, " (checkpointed step %.3fs)", r.CkptStep)
	}
	b.WriteByte('\n')
	if r.Policy == PolicyRollback && r.AnomalyStep > 0 {
		fmt.Fprintf(&b, "  anomaly: guard rejects step %d; detected at %.3fs, roll back to step %d (restore %.3fs)\n",
			r.AnomalyStep, r.DetectedAt, r.ResumeStep, r.RollbackRestoreSeconds)
		fmt.Fprintf(&b, "  total: %.3fs = fault-free %.3fs + ckpt %.3fs + lost work %.3fs + restore %.3fs + ckpt(re-exec) %.3fs\n",
			r.TotalTime, r.FaultFreeTime, r.CheckpointOverheadPre, r.LostWork,
			r.RollbackRestoreSeconds, r.CheckpointOverheadPost)
		return b.String()
	}
	if r.Failure == "" {
		fmt.Fprintf(&b, "  no permanent failure within the run; total %.3fs (+%.3fs checkpoint overhead)\n",
			r.TotalTime, r.Overhead())
		return b.String()
	}
	fmt.Fprintf(&b, "  failure: %s (lands in step %d); detected at %.3fs, %d steps done, resume from step %d\n",
		r.Failure, r.FailedStep, r.DetectedAt, r.StepsCompleted, r.ResumeStep)
	fmt.Fprintf(&b, "  survivors: %d GPU(s) %v, step %.3fs; migrate %.1f GB in %.3fs\n",
		len(r.SurvivorGPUs), r.SurvivorGPUs, r.SurvivorStep, r.MigrationBytes/1e9, r.MigrationSeconds)
	fmt.Fprintf(&b, "  total: %.3fs = fault-free %.3fs + ckpt %.3fs + lost work %.3fs + migrate %.3fs + slower steps %.3fs + ckpt(surv) %.3fs\n",
		r.TotalTime, r.FaultFreeTime, r.CheckpointOverheadPre, r.LostWork,
		r.MigrationSeconds, r.ResumePenalty, r.CheckpointOverheadPost)
	fmt.Fprintf(&b, "  re-plan: %.3fs wall-clock, not in total\n", r.ReplanSeconds)
	return b.String()
}

func everyLabel(every int) string {
	if every <= 0 {
		return "never"
	}
	return fmt.Sprintf("%d step(s)", every)
}

// Run executes the elastic run described by cfg and prices it.
func Run(cfg Config) (*RecoveryReport, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("elastic: topology is required")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("elastic: steps must be positive (got %d)", cfg.Steps)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("elastic: negative checkpoint interval %d", cfg.CheckpointEvery)
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyReplan
	}
	switch cfg.Policy {
	case PolicyRestart, PolicyResume, PolicyReplan, PolicyRollback:
	default:
		return nil, fmt.Errorf("elastic: unknown policy %q (want %v or %s)", cfg.Policy, Policies(), PolicyRollback)
	}
	if cfg.AnomalyStep != 0 && cfg.Policy != PolicyRollback {
		return nil, fmt.Errorf("elastic: anomaly step %d requires policy %s (got %s)", cfg.AnomalyStep, PolicyRollback, cfg.Policy)
	}
	if cfg.Policy == PolicyRollback && (cfg.AnomalyStep < 1 || cfg.AnomalyStep > cfg.Steps) {
		return nil, fmt.Errorf("elastic: policy %s needs an anomaly step in [1, %d] (got %d)", PolicyRollback, cfg.Steps, cfg.AnomalyStep)
	}
	if cfg.CheckpointDest == "" {
		cfg.CheckpointDest = DestDRAM
	}
	if cfg.CheckpointDest != DestDRAM && cfg.CheckpointDest != DestSSD {
		return nil, fmt.Errorf("elastic: unknown checkpoint destination %q (want %s or %s)", cfg.CheckpointDest, DestDRAM, DestSSD)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	perms := cfg.Faults.Permanents()
	if len(perms) > 1 {
		return nil, fmt.Errorf("elastic: %d permanent failures declared; recovering from more than one is not supported", len(perms))
	}
	if cfg.Policy == PolicyRollback && len(perms) > 0 {
		return nil, fmt.Errorf("elastic: policy %s recovers from a numeric anomaly on an intact machine and cannot be combined with permanent failures", PolicyRollback)
	}
	if cfg.Steps > 1 && cfg.Faults != nil {
		for i, l := range cfg.Faults.Links {
			if l.Start > 0 || l.End > 0 {
				return nil, fmt.Errorf("elastic: links[%d] (%s): windowed link faults use single-step time and cannot span a %d-step run; use an unbounded window (start 0, end 0)",
					i, l.Link, cfg.Steps)
			}
		}
	}

	topo := cfg.Topology
	if cfg.CheckpointDest == DestSSD && !topo.HasSSD() {
		clone := *topo
		topo = (&clone).WithSSD(hw.CommoditySSDBW, hw.CommoditySSDBytes)
	}
	// M is the full machine's GPU count on every step, the survivors'
	// included, so a recovery keeps the global batch size and with it
	// the training semantics.
	M := topo.NumGPUs()
	every := cfg.CheckpointEvery
	if cfg.Policy == PolicyRestart {
		// Restart-from-scratch is the no-checkpoint baseline.
		every = 0
	}
	ckBytes := cfg.Model.ModelStatesBytes()
	base := cfg.Faults.WithoutPermanent()

	rep := &RecoveryReport{
		Policy:          cfg.Policy,
		Steps:           cfg.Steps,
		CheckpointEvery: every,
		CheckpointBytes: ckBytes,
		CheckpointDest:  cfg.CheckpointDest,
	}

	// Plan and price a step on the full machine.
	plan, err := planOn(cfg, topo, M)
	if err != nil {
		return nil, err
	}
	ck := &pipeline.CheckpointWrite{Bytes: ckBytes, ToSSD: cfg.CheckpointDest == DestSSD}
	plain, err := stepTime(topo, plan, M, base, nil)
	if err != nil {
		return nil, err
	}
	rep.PlainStep = plain
	rep.CkptStep = plain
	if every > 0 {
		if rep.CkptStep, err = stepTime(topo, plan, M, base, ck); err != nil {
			return nil, err
		}
	}
	rep.FaultFreeTime = float64(cfg.Steps) * rep.PlainStep

	if cfg.Policy == PolicyRollback {
		if err := finishRollback(cfg, rep, topo, base, every); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// duration of step i (1-based) on the full machine.
	dur := func(i int) float64 {
		if every > 0 && i%every == 0 {
			return rep.CkptStep
		}
		return rep.PlainStep
	}

	// Locate the failing step: the permanent onset is in global run time.
	failStep, elapsed := 0, 0.0
	if len(perms) == 1 {
		for i := 1; i <= cfg.Steps; i++ {
			if perms[0].At < elapsed+dur(i) {
				failStep = i
				break
			}
			elapsed += dur(i)
		}
	}
	if failStep == 0 {
		// No failure fires within the run: the fault-free timeline, plus
		// whatever checkpoint insurance was configured.
		total := 0.0
		for i := 1; i <= cfg.Steps; i++ {
			total += dur(i)
		}
		rep.TotalTime = total
		rep.CheckpointOverheadPre = total - rep.FaultFreeTime
		return rep, nil
	}

	// Replay the failing step with the onset shifted into step-local time;
	// the simulator halts it with a structured loss.
	failSpec := shiftPermanent(base, perms[0], perms[0].At-elapsed)
	failed, err := runStep(topo, plan, M, failSpec, ckWhen(every, failStep, ck))
	if err != nil {
		return nil, err
	}
	if failed.OOM {
		return nil, fmt.Errorf("elastic: failing step OOMs on %q: %s", topo.Name, failed.OOMCause)
	}
	if failed.ResourceLost == nil {
		return nil, fmt.Errorf("elastic: permanent failure did not halt the step it lands in (onset inside a %gs step)", failed.StepTime)
	}
	rep.Failure = perms[0].String()
	rep.FailedStep = failStep
	rep.Lost = failed.ResourceLost
	rep.DetectedAt = elapsed + failed.StepTime
	rep.StepsCompleted = failStep - 1
	if every > 0 {
		rep.ResumeStep = ((failStep - 1) / every) * every
	}

	// The surviving machine and the conditions that still hold on it.
	surv, gpuMap, rcMap, err := survive(topo, cfg.Faults)
	if err != nil {
		return nil, err
	}
	for old, idx := range gpuMap {
		if idx >= 0 {
			rep.SurvivorGPUs = append(rep.SurvivorGPUs, old)
		}
	}
	survSpec := remapSpec(cfg.Faults, gpuMap, rcMap)

	// Recovery plan (wall-clock timed: this is real planner work a live
	// system would spend while the cluster idles).
	replanStart := time.Now()
	survPlan, err := recoveryPlan(cfg, plan, surv, M)
	if err != nil {
		return nil, err
	}
	rep.ReplanSeconds = time.Since(replanStart).Seconds()

	// Migrate the last consistent snapshot into place (resume/replan).
	// Restart re-initializes instead, which the fault-free baseline also
	// excludes.
	if cfg.Policy != PolicyRestart {
		rep.MigrationBytes = ckBytes
		rep.MigrationSeconds, err = MigrationSeconds(surv, survSpec, ckBytes, cfg.CheckpointDest)
		if err != nil {
			return nil, err
		}
	}

	// Price a survivor step and finish the timeline.
	rep.SurvivorStep, err = stepTime(surv, survPlan, M, survSpec, nil)
	if err != nil {
		return nil, err
	}
	rep.SurvivorCkptStep = rep.SurvivorStep
	if every > 0 {
		if rep.SurvivorCkptStep, err = stepTime(surv, survPlan, M, survSpec, ck); err != nil {
			return nil, err
		}
	}

	resume := rep.ResumeStep
	endOfResume := float64(resume)*rep.PlainStep + float64(ckptsUpTo(resume, every))*(rep.CkptStep-rep.PlainStep)
	rep.CheckpointOverheadPre = float64(ckptsUpTo(resume, every)) * (rep.CkptStep - rep.PlainStep)
	rep.LostWork = rep.DetectedAt - endOfResume
	postCkpts := ckptsUpTo(cfg.Steps, every) - ckptsUpTo(resume, every)
	remaining := float64(cfg.Steps-resume)*rep.SurvivorStep + float64(postCkpts)*(rep.SurvivorCkptStep-rep.SurvivorStep)
	rep.ResumePenalty = float64(cfg.Steps-resume) * (rep.SurvivorStep - rep.PlainStep)
	rep.CheckpointOverheadPost = float64(postCkpts) * (rep.SurvivorCkptStep - rep.SurvivorStep)
	rep.TotalTime = rep.DetectedAt + rep.MigrationSeconds + remaining
	return rep, nil
}

// ckptsUpTo counts checkpointed steps among 1..i.
func ckptsUpTo(i, every int) int {
	if every <= 0 {
		return 0
	}
	return i / every
}

// ckWhen returns ck when step i is a checkpointed step, else nil.
func ckWhen(every, i int, ck *pipeline.CheckpointWrite) *pipeline.CheckpointWrite {
	if every > 0 && i%every == 0 {
		return ck
	}
	return nil
}

// shiftPermanent rebuilds a single-step spec: the base non-permanent
// clauses plus the permanent failure at its step-local onset.
func shiftPermanent(base *fault.Spec, p fault.Permanent, at float64) *fault.Spec {
	var out fault.Spec
	if base != nil {
		out = *base
	}
	if p.Kind == "gpu_fail" {
		out.GPUFails = []fault.GPUFailFault{{GPU: p.GPU, At: at}}
	} else {
		out.LinkFails = []fault.LinkFailFault{{Link: p.Link, At: at}}
	}
	return &out
}

// planOn plans Mobius on a topology.
func planOn(cfg Config, topo *hw.Topology, mb int) (*core.Plan, error) {
	return core.PlanMobius(core.Options{
		Model:        cfg.Model,
		Topology:     topo,
		Microbatches: mb,
	})
}

// recoveryPlan derives the plan the run resumes with, per policy:
// restart/replan plan from scratch on the survivors; resume keeps the
// original partition and lays its stages sequentially onto the surviving
// GPUs, failing when that plan no longer fits their memory.
func recoveryPlan(cfg Config, full *core.Plan, surv *hw.Topology, mb int) (*core.Plan, error) {
	if cfg.Policy != PolicyResume {
		return planOn(cfg, surv, mb)
	}
	mp, err := mapping.Sequential(surv, full.Partition.NumStages())
	if err != nil {
		return nil, fmt.Errorf("elastic: resume-same-plan: %w", err)
	}
	p := &core.Plan{Profile: full.Profile, Partition: full.Partition, Mapping: mp}
	if err := p.Validate(surv); err != nil {
		return nil, fmt.Errorf("elastic: resume-same-plan infeasible on surviving topology: %w", err)
	}
	return p, nil
}

// runStep builds one Mobius step of plan on topo and runs it under
// spec, without checksums.
func runStep(topo *hw.Topology, plan *core.Plan, mb int, spec *fault.Spec, ck *pipeline.CheckpointWrite) (*pipeline.Result, error) {
	st, err := pipeline.BuildMobius(topo, pipeline.MobiusConfig{
		Partition:    plan.Partition,
		Mapping:      plan.Mapping,
		Microbatches: mb,
		Checkpoint:   ck,
	})
	if err != nil {
		return nil, err
	}
	return st.Run(spec, sim.ChecksumConfig{})
}

// stepTime runs one step that must complete and returns its duration.
func stepTime(topo *hw.Topology, plan *core.Plan, mb int, spec *fault.Spec, ck *pipeline.CheckpointWrite) (float64, error) {
	res, err := runStep(topo, plan, mb, spec, ck)
	if err != nil {
		return 0, err
	}
	if res.OOM {
		return 0, fmt.Errorf("elastic: step OOMs on %q: %s", topo.Name, res.OOMCause)
	}
	if res.ResourceLost != nil {
		return 0, fmt.Errorf("elastic: unexpected resource loss in a fault-free step: %v", res.ResourceLost)
	}
	return res.StepTime, nil
}

// MigrationSeconds prices restoring a checkpoint snapshot over the real
// topology: one bulk transfer from the checkpoint tier into DRAM on the
// machine the work lands on, under the fault conditions that hold there
// (nil spec means nominal hardware). Elastic recovery uses it for the
// surviving topology after a GPU or link loss; the cluster layer
// (internal/cluster) uses it to price re-landing a drained job's state
// on another server of the fleet.
func MigrationSeconds(surv *hw.Topology, spec *fault.Spec, bytes float64, dest Dest) (float64, error) {
	srv, err := hw.Build(surv)
	if err != nil {
		return 0, err
	}
	if !spec.Empty() {
		if _, err := fault.Apply(srv, spec); err != nil {
			return 0, err
		}
	}
	src := hw.DRAMEnd
	if dest == DestSSD {
		src = hw.SSDEnd
	}
	srv.Sim.Transfer(srv.Sim.Name("migrate"), nil, srv.Route(src, hw.DRAMEnd), bytes, 0)
	if err := srv.RouteErr(); err != nil {
		return 0, err
	}
	end, err := srv.Sim.Run()
	if err != nil {
		return 0, err
	}
	return end, nil
}
