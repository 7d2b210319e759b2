package pipeline

import (
	"fmt"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/partition"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// GPipeConfig describes a GPipe training step: classical pipeline
// parallelism with exactly one stage per GPU and the full mixed-precision
// training state resident in GPU memory (no heterogeneous memory).
type GPipeConfig struct {
	Profile      *profile.Profile
	Microbatches int
	// Faults, when non-nil, degrades the simulated hardware (see the
	// fault package).
	Faults *fault.Spec
	// Checksums enables end-to-end transfer integrity: every transfer
	// pays a per-byte checksum cost, detected corruptions retransmit
	// within a bounded budget, and exhaustion halts the step with a
	// structured sim.CorruptionError.
	Checksums sim.ChecksumConfig
}

// gpipeStateFactor converts a stage's FP16 parameter bytes into the full
// resident training state: fp16 params+grads (2x) plus fp32 master and
// Adam moments (6x more halves), i.e. 16 bytes per parameter = 8x the
// FP16 parameter footprint.
const gpipeStateFactor = 8

// RunGPipe simulates one GPipe training step: the model is split into one
// balanced stage per GPU, parameters stay resident, and only boundary
// activations (and their gradients) move between GPUs.
func RunGPipe(topo *hw.Topology, cfg GPipeConfig) (*Result, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("pipeline: profile is required")
	}
	N := topo.NumGPUs()
	M := cfg.Microbatches
	if M <= 0 {
		M = N
	}

	srv, err := hw.Build(topo)
	if err != nil {
		return nil, err
	}
	res := &Result{Recorder: trace.NewRecorder(), Server: srv}
	srv.Sim.Checksums = cfg.Checksums
	if err := applyFaults(srv, cfg.Faults, res); err != nil {
		return nil, err
	}

	part, err := partition.Balanced(partition.Params{
		Profile:   cfg.Profile,
		NumGPUs:   N,
		GPUMem:    topo.GPUMem(0),
		Bandwidth: 1, // unused by Balanced
	}, N)
	if err != nil {
		return nil, err
	}
	stg := part.Stages

	// OOM check: full training state plus retained boundary checkpoints
	// for every in-flight microbatch must fit.
	for j, st := range stg {
		need := st.ParamBytes*gpipeStateFactor + st.WorkingBytes + float64(M)*(st.ActInBytes+st.ActOutBytes)
		if need > topo.GPUMem(j) {
			res.OOM = true
			return res, nil
		}
	}

	s := srv.Sim
	F := make([][]*sim.Task, N)
	B := make([][]*sim.Task, N)
	for j := range F {
		F[j] = make([]*sim.Task, M)
		B[j] = make([]*sim.Task, M)
	}
	tag := func(kind trace.Kind, gpu, peer, stage, mb int) trace.Tag {
		return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: stage, Microbatch: mb}
	}

	nA, nF, nG, nB := s.Name("A", "."), s.Name("F", "."), s.Name("G", "."), s.Name("B", ".")

	// Forward.
	for j := 0; j < N; j++ {
		for m := 0; m < M; m++ {
			var prev, act *sim.Task
			if m > 0 {
				prev = F[j][m-1]
			}
			if j > 0 {
				act = s.Transfer(nA.With(j, m), srv.DownloadEngine[j-1],
					srv.Route(hw.GPUEnd(j-1), hw.GPUEnd(j)), stg[j].ActInBytes, prioActivation, F[j-1][m])
				act.SetTag(tag(trace.KindActTransfer, j-1, j, j, m))
			}
			F[j][m] = s.Compute(nF.With(j, m), srv.ComputeEngines[j], stg[j].FwdTime, prev, act)
			F[j][m].SetTag(tag(trace.KindCompute, j, -1, j, m))
		}
	}

	// Backward.
	for j := N - 1; j >= 0; j-- {
		for m := 0; m < M; m++ {
			var prev, gr *sim.Task
			if m > 0 {
				prev = B[j][m-1]
			}
			if j == N-1 {
				// The last stage starts backward once forward drains.
				gr = F[N-1][M-1]
			} else {
				gr = s.Transfer(nG.With(j, m), srv.DownloadEngine[j+1],
					srv.Route(hw.GPUEnd(j+1), hw.GPUEnd(j)), stg[j].ActOutBytes, prioActivation, B[j+1][m])
				gr.SetTag(tag(trace.KindActTransfer, j+1, j, j, m))
			}
			B[j][m] = s.Compute(nB.With(j, m), srv.ComputeEngines[j], stg[j].BwdTime, prev, gr)
			B[j][m].SetTag(tag(trace.KindCompute, j, -1, j, m))
		}
	}

	return Finish(srv, res)
}
