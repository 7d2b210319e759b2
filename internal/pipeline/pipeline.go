// Package pipeline implements the training-step schedulers that execute
// on the simulated server: the Mobius pipeline (§3.1) — heterogeneous
// memory, multiple stages per GPU, prefetching into reserved memory,
// activation offload and gradient flush — and the GPipe baseline
// (all-in-GPU-memory pipeline parallelism), which also stands in for
// "DeepSpeed with pipeline parallelism" in the evaluation. Every simulated
// step, the zero baselines' included, ends in Finish and is read back from
// one Result.
package pipeline

import (
	"errors"
	"fmt"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// Result is the outcome of simulating one training step, the record every
// step builder returns; core.StepReport embeds it.
type Result struct {
	// StepTime is the simulated duration of one training step in seconds.
	StepTime float64
	// OOM reports that the schedule cannot fit in GPU memory; StepTime is
	// meaningless when set.
	OOM bool
	// OOMCause describes a structured OOM surfaced during simulation (an
	// allocation larger than its pool, sim.OOMError); empty when the
	// pre-run memory check caught the overflow.
	OOMCause string
	// ResourceLost is set when a scheduled permanent failure halted the
	// step mid-flight; StepTime then holds the elapsed time up to
	// detection, not a completed step.
	ResourceLost *sim.ResourceLostError
	// Corruption is set when a transfer exhausted its retransmit budget
	// under end-to-end checksums; like ResourceLost, StepTime holds the
	// elapsed time up to the failed delivery.
	Corruption *sim.CorruptionError
	// Integrity aggregates the step's corruption/checksum accounting
	// (zero-valued when neither checksums nor corruption were configured).
	Integrity sim.IntegrityStats
	// Recorder holds the collected flow/compute records.
	Recorder *trace.Recorder
	// Server exposes the simulated hardware (resource utilization,
	// memory peaks) after the run.
	Server *hw.Server
	// FaultInjection records the applied fault scenario and the
	// corruptions it injected; nil for nominal runs.
	FaultInjection *fault.Injection
}

// TotalTraffic returns all transferred bytes during the step.
func (r *Result) TotalTraffic() float64 {
	if r.Recorder == nil {
		return 0
	}
	return r.Recorder.TotalBytes(nil)
}

// The aggregates below compute from the step's records on each call, so
// a caller that never reads them never pays for them. Each is zero for
// an OOM step or a result without records.

// BandwidthCDF is the byte-weighted achieved-bandwidth distribution over
// all transfers (Figures 2, 7, 11).
func (r *Result) BandwidthCDF() trace.CDF {
	if r.OOM || r.Recorder == nil {
		return trace.CDF{}
	}
	return r.Recorder.BandwidthCDF(nil)
}

// HostLinkCDF restricts the bandwidth CDF to GPU<->DRAM transfers
// (Figure 16): flows with a GPU and no peer GPU, which leaves out
// GPU-to-GPU traffic and host-side checkpoint writes.
func (r *Result) HostLinkCDF() trace.CDF {
	if r.OOM || r.Recorder == nil {
		return trace.CDF{}
	}
	return r.Recorder.BandwidthCDF(func(tag trace.Tag) bool { return tag.GPU >= 0 && tag.PeerGPU < 0 })
}

// NonOverlapFraction is the share of step time spent on communication
// not hidden by compute, averaged over the server's GPUs (Figure 8).
func (r *Result) NonOverlapFraction() float64 {
	if r.OOM || r.Recorder == nil || r.Server == nil {
		return 0
	}
	return r.Recorder.NonOverlappedCommFraction(r.Server.Topo.NumGPUs(), r.StepTime)
}

// Transfer priority classes. Higher runs first at shared resources.
const (
	prioGradFlush  = 0  // background: gradient flush, activation offload
	prioUploadBase = 10 // stage uploads: base + mapping.UploadPriority
	prioActivation = 10000
)

// applyFaults binds a fault spec to the freshly built server and records
// the injection on the result. A nil or empty spec is a no-op.
func applyFaults(srv *hw.Server, spec *fault.Spec, res *Result) error {
	if spec.Empty() {
		return nil
	}
	inj, err := fault.Apply(srv, spec)
	if err != nil {
		return err
	}
	res.FaultInjection = inj
	return nil
}

// Finish validates the routed DAG, executes the simulation and records its
// finished tasks into res.Recorder; every step builder (Mobius, GPipe and
// the zero baselines) ends here. A structured OOM (an allocation larger
// than its whole pool) degrades the result to OOM instead of failing the
// call; a permanent failure halting the step surfaces as
// Result.ResourceLost and an exhausted retransmit budget as
// Result.Corruption, both with the elapsed time up to detection; every
// other simulation error — deadlock, memory accounting — is returned. The
// trace records and the simulator's integrity accounting are captured on
// every path so callers can read retransmit counts and silent-corruption
// exposure even from failed steps.
func Finish(srv *hw.Server, res *Result) (*Result, error) {
	if err := srv.RouteErr(); err != nil {
		return nil, fmt.Errorf("pipeline: schedule: %w", err)
	}
	end, err := srv.Sim.Run()
	res.Recorder.Record(srv.Sim.Finished())
	res.Integrity = srv.Sim.Integrity()
	if err != nil {
		var oom *sim.OOMError
		if errors.As(err, &oom) {
			res.OOM = true
			res.OOMCause = oom.Error()
			return res, nil
		}
		var lost *sim.ResourceLostError
		if errors.As(err, &lost) {
			res.ResourceLost = lost
			res.StepTime = end
			return res, nil
		}
		var corr *sim.CorruptionError
		if errors.As(err, &corr) {
			res.Corruption = corr
			res.StepTime = end
			return res, nil
		}
		return nil, fmt.Errorf("pipeline: schedule: %w", err)
	}
	res.StepTime = end
	return res, nil
}
