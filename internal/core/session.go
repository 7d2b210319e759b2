package core

import (
	"context"
	"fmt"

	"mobius/internal/fault"
	"mobius/internal/pipeline"
	"mobius/internal/sim"
)

// MobiusSession plans and builds one Mobius step, then executes it
// repeatedly under varying fault and checksum configurations — the
// experiment-grid shape. Profiling, the partition search, the mapping
// search and the topology/DAG construction are paid once at session
// creation; each Run replays the built schedule through sim.Reset, so a
// sweep over fault scenarios costs one construction plus one simulation
// per cell. A Run reports what RunCtx reports for the same options,
// faults and checksums.
type MobiusSession struct {
	opts Options
	plan *Plan
	step *pipeline.MobiusStep
}

// NewMobiusSession plans the model on the topology and builds the step
// the way RunCtx does. The Faults and Checksums fields of opts are
// ignored: they are arguments of each Run. Options that shape the plan
// or the DAG (partition algorithm, microbatches, prefetch knobs,
// checkpoint clause) are fixed for the session's lifetime.
func NewMobiusSession(opts Options) (*MobiusSession, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if states := opts.Model.ModelStatesBytes(); states > opts.Topology.DRAMBytes {
		return nil, fmt.Errorf("core: model states (%.0f GB) exceed DRAM capacity (%.0f GB)",
			states/1e9, opts.Topology.DRAMBytes/1e9)
	}
	plan, err := planMobius(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	step, err := buildMobius(opts, plan)
	if err != nil {
		return nil, err
	}
	return &MobiusSession{opts: opts, plan: plan, step: step}, nil
}

// Plan returns the session's Mobius execution plan.
func (ms *MobiusSession) Plan() *Plan { return ms.plan }

// Run executes the built step under the given fault spec and checksum
// configuration. A nil spec with zero checksums replays the nominal
// schedule. Reports from earlier Runs keep their scalar fields and
// derived aggregates, but share the session's recorder and server —
// read raw trace data from a report before the next Run.
func (ms *MobiusSession) Run(faults *fault.Spec, checksums sim.ChecksumConfig) (*StepReport, error) {
	report := &StepReport{System: SystemMobius, Model: ms.opts.Model, Topology: ms.opts.Topology, Plan: ms.plan}
	res, err := ms.step.Run(faults, checksums)
	if err != nil {
		return nil, err
	}
	fillReport(report, res, ms.opts.Topology)
	return report, nil
}
