package pipeline

import (
	"errors"
	"fmt"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/partition"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// MobiusConfig describes the schedule of one Mobius training step: what
// BuildMobius turns into a DAG. The fault scenario and checksum settings
// are not part of it; they vary per execution and are passed to
// MobiusStep.Run.
type MobiusConfig struct {
	Partition *partition.Partition
	Mapping   *mapping.Mapping
	// Microbatches is M; the paper sets M equal to the GPU count.
	Microbatches int
	// DisablePrefetchPriority drops the paper's priority policy for
	// concurrent prefetches (an ablation knob); uploads then share
	// bandwidth max-min fair.
	DisablePrefetchPriority bool
	// DisablePrefetch turns off stage prefetching entirely (an ablation
	// knob): uploads start only after the previous stage is freed, so no
	// communication hides under computation.
	DisablePrefetch bool
	// Checkpoint, when non-nil, appends a periodic state snapshot to the
	// step: each stage's proportional share of the snapshot flows from
	// DRAM to the checkpoint destination right after that stage's
	// gradient flush, overlapping with the remaining backward work like
	// any other background transfer.
	Checkpoint *CheckpointWrite
}

// CheckpointWrite sizes and routes the per-step state snapshot emitted
// when MobiusConfig.Checkpoint is set.
type CheckpointWrite struct {
	// Bytes is the full snapshot: fp32 master params plus optimizer
	// state, i.e. model.Config.ModelStatesBytes().
	Bytes float64
	// ToSSD routes the write to the NVMe tier ("ssd" resource) instead
	// of a second DRAM region over the DRAM bus.
	ToSSD bool
}

// MobiusStep is a built Mobius schedule: the topology instantiated on a
// simulator and the step DAG constructed, ready to run once.
type MobiusStep struct {
	srv *hw.Server
	rec *trace.Recorder
	// oom records that the static memory pre-check failed; the DAG was
	// never built and Run reports OOM.
	oom bool
	// ran records that Run was called.
	ran bool
}

// errStepRan is Run's answer to a second call.
var errStepRan = errors.New("pipeline: MobiusStep.Run called twice")

// Server exposes the simulated hardware backing the step.
func (st *MobiusStep) Server() *hw.Server { return st.srv }

// BuildMobius constructs the simulated server and the step DAG for the
// configuration. Faults and checksums are not part of the schedule; they
// are inputs of MobiusStep.Run.
//
// The emitted DAG follows §3.1: stages live in DRAM; each GPU executes
// its stages in pipeline order, swapping them in ahead of time where
// reserved memory allows (prefetch), offloading boundary activations
// after forward, re-uploading parameters and checkpoints before backward,
// and flushing gradients to DRAM for the CPU optimizer at the end of each
// stage's backward.
func BuildMobius(topo *hw.Topology, cfg MobiusConfig) (*MobiusStep, error) {
	if cfg.Partition == nil || cfg.Mapping == nil {
		return nil, fmt.Errorf("pipeline: partition and mapping are required")
	}
	S := len(cfg.Partition.Stages)
	N := topo.NumGPUs()
	M := cfg.Microbatches
	if M <= 0 {
		M = N
	}
	if len(cfg.Mapping.Perm) != N {
		return nil, fmt.Errorf("pipeline: mapping is for %d GPUs, topology has %d", len(cfg.Mapping.Perm), N)
	}

	srv, err := hw.Build(topo)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	st := &MobiusStep{srv: srv, rec: rec}

	stg := cfg.Partition.Stages
	gpuOf := func(j int) int { return cfg.Mapping.GPUOf(j) }
	gpuMem := func(j int) float64 { return topo.GPUMem(gpuOf(j)) }
	totalParam := 0.0
	for _, st := range stg {
		totalParam += st.ParamBytes
	}

	// OOM pre-check (constraint 4). The check is static, so the step is
	// built DAG-less and Run reports OOM.
	for j := 0; j < S; j++ {
		if stg[j].MemFwd() > gpuMem(j) || stg[j].MemBwd() > gpuMem(j) {
			st.oom = true
			return st, nil
		}
	}

	uploadPrio := func(j int) int {
		if cfg.DisablePrefetchPriority {
			return prioUploadBase
		}
		return prioUploadBase + cfg.Mapping.UploadPriority(j)
	}

	// The DAG is emitted with the simulator's constructors. Optional
	// predecessors ("previous microbatch, if any") are passed as nil,
	// which the constructors skip. The stage×microbatch handles live in
	// flat slices indexed j*M+m. Task names are recipes over patterns
	// interned once here ("F3.7" is nF.With(3, 7)); the simulator formats
	// them only for errors.
	s := srv.Sim
	var (
		nAllocF, nAllocPreF, nAllocRestF = s.Name("allocF"), s.Name("allocPreF"), s.Name("allocRestF")
		nC, nCPre, nCRest, nReadyF       = s.Name("C"), s.Name("C", ".pre"), s.Name("C", ".rest"), s.Name("readyF")
		nA, nF, nO, nFreeF               = s.Name("A", "."), s.Name("F", "."), s.Name("O", "."), s.Name("freeF")
		nGradAllocB                      = s.Name("gradAllocB")
		nAllocPreB, nAllocRestB          = s.Name("allocPreB"), s.Name("allocRestB")
		nCBPre, nCBRest, nReadyB         = s.Name("CB", ".pre"), s.Name("CB", ".rest"), s.Name("readyB")
		nG, nAU, nB                      = s.Name("G", "."), s.Name("AU", "."), s.Name("B", ".")
		nGF, nFreeB, nCK                 = s.Name("GF"), s.Name("freeB"), s.Name("CK")
	)
	fwd := make([]*sim.Task, S*M)
	bwd := make([]*sim.Task, S*M)
	off := make([]*sim.Task, S*M) // nil where a stage emits no checkpoint
	freeF := make([]*sim.Task, S)
	freeB := make([]*sim.Task, S)
	deps := make([]*sim.Task, 0, M+1) // freeF's last forward and offloads

	tag := func(kind trace.Kind, gpu, peer, stage, mb int) trace.Tag {
		return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: stage, Microbatch: mb}
	}

	// ---- Forward pass ----
	for j := 0; j < S; j++ {
		g := gpuOf(j)
		up := srv.UploadEngines[g]
		mem := srv.GPUMems[g]

		// Stage swap-in with prefetch. The prefetchable share is bounded
		// by the memory left beside the previous stage on this GPU
		// (constraint 5); the overlap window (constraint 6) emerges from
		// the simulation itself.
		var ready *sim.Task
		if j < N {
			// First-round stages upload at step start.
			alloc := s.Alloc(nAllocF.With(j), mem, stg[j].MemFwd())
			xfer := s.Transfer(nC.With(j), up, srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), stg[j].UploadFwd(), uploadPrio(j), alloc)
			xfer.SetTag(tag(trace.KindParamUpload, g, -1, j, -1))
			ready = xfer
		} else {
			prev := stg[j-N]
			// Reserve whatever memory fits beside the previous stage
			// (constraint 5) and prefetch the matching share of the
			// upload; the rest waits for the previous stage to be freed.
			resv := min(stg[j].MemFwd(), max(0, gpuMem(j)-prev.MemFwd()))
			if cfg.DisablePrefetch {
				resv = 0
			}
			pf := stg[j].UploadFwd() * resv / stg[j].MemFwd()
			// Prefetch starts once the previous stage has begun computing
			// (its first microbatch forward is the observable trigger).
			preAlloc := s.Alloc(nAllocPreF.With(j), mem, resv, fwd[(j-N)*M])
			preXfer := s.Transfer(nCPre.With(j), up, srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), pf, uploadPrio(j), preAlloc)
			preXfer.SetTag(tag(trace.KindParamUpload, g, -1, j, -1))
			restAlloc := s.Alloc(nAllocRestF.With(j), mem, stg[j].MemFwd()-resv, freeF[j-N])
			restXfer := s.Transfer(nCRest.With(j), up, srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), stg[j].UploadFwd()-pf, uploadPrio(j), restAlloc, preXfer)
			restXfer.SetTag(tag(trace.KindParamUpload, g, -1, j, -1))
			ready = s.After(nReadyF.With(j), preXfer, restXfer)
		}

		for m := 0; m < M; m++ {
			var act, prevF *sim.Task
			if j > 0 {
				// Boundary activation from the upstream stage, staged
				// through DRAM on commodity servers.
				src := gpuOf(j - 1)
				act = s.Transfer(nA.With(j, m), srv.DownloadEngine[src],
					srv.Route(hw.GPUEnd(src), hw.GPUEnd(g)), stg[j].ActInBytes, prioActivation, fwd[(j-1)*M+m])
				act.SetTag(tag(trace.KindActTransfer, src, g, j, m))
			}
			if m > 0 {
				prevF = fwd[j*M+m-1]
			}
			f := s.Compute(nF.With(j, m), srv.ComputeEngines[g], stg[j].FwdTime, ready, prevF, act)
			f.SetTag(tag(trace.KindCompute, g, -1, j, m))
			fwd[j*M+m] = f

			// Offload the boundary checkpoint for the backward pass.
			if stg[j].ActOutBytes > 0 {
				o := s.Transfer(nO.With(j, m), srv.DownloadEngine[g],
					srv.Route(hw.GPUEnd(g), hw.DRAMEnd), stg[j].ActOutBytes, prioGradFlush, f)
				o.SetTag(tag(trace.KindActOffload, g, -1, j, m))
				off[j*M+m] = o
			}
		}

		// Free the stage after its last microbatch (and its offloads) —
		// except the final round, which stays resident for backward.
		if j < S-N {
			deps = append(append(deps[:0], fwd[j*M+M-1]), off[j*M:j*M+M]...)
			freeF[j] = s.Free(nFreeF.With(j), mem, stg[j].MemFwd(), deps...)
		}
	}

	// ---- Backward pass ----
	for j := S - 1; j >= 0; j-- {
		g := gpuOf(j)
		up := srv.UploadEngines[g]
		down := srv.DownloadEngine[g]
		mem := srv.GPUMems[g]

		var ready *sim.Task
		if j >= S-N {
			// Still resident from forward; grow to the backward footprint.
			extra := stg[j].MemBwd() - stg[j].MemFwd()
			ready = s.Alloc(nGradAllocB.With(j), mem, max(0, extra), fwd[j*M+M-1])
		} else {
			nxt := stg[j+N] // executes before this stage in backward order
			resv := min(stg[j].MemBwd(), max(0, gpuMem(j)-nxt.MemBwd()))
			if cfg.DisablePrefetch {
				resv = 0
			}
			// The pre/rest pair carries the parameters; checkpointed
			// activations are re-uploaded per microbatch below.
			pb := stg[j].ParamBytes * resv / stg[j].MemBwd()
			preAlloc := s.Alloc(nAllocPreB.With(j), mem, resv, bwd[(j+N)*M])
			preXfer := s.Transfer(nCBPre.With(j), up, srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), pb, uploadPrio(j), preAlloc)
			preXfer.SetTag(tag(trace.KindParamUpload, g, -1, j, -1))
			restAlloc := s.Alloc(nAllocRestB.With(j), mem, stg[j].MemBwd()-resv, freeB[j+N])
			restXfer := s.Transfer(nCBRest.With(j), up, srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), stg[j].ParamBytes-pb, uploadPrio(j), restAlloc, preXfer)
			restXfer.SetTag(tag(trace.KindParamUpload, g, -1, j, -1))
			ready = s.After(nReadyB.With(j), preXfer, restXfer)
		}

		for m := 0; m < M; m++ {
			var gr, actUp, prevB *sim.Task
			if j < S-1 {
				// Activation gradient from the downstream stage.
				src := gpuOf(j + 1)
				gr = s.Transfer(nG.With(j, m), srv.DownloadEngine[src],
					srv.Route(hw.GPUEnd(src), hw.GPUEnd(g)), stg[j].ActOutBytes, prioActivation, bwd[(j+1)*M+m])
				gr.SetTag(tag(trace.KindActTransfer, src, g, j, m))
			} else {
				// Constraint (11): backward starts after forward drains.
				gr = fwd[S*M-1]
			}
			// Re-upload the input checkpoint for recomputation.
			if j > 0 && stg[j].ActInBytes > 0 && off[(j-1)*M+m] != nil {
				actUp = s.Transfer(nAU.With(j, m), up, srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), stg[j].ActInBytes, prioActivation, off[(j-1)*M+m], ready)
				actUp.SetTag(tag(trace.KindActUpload, g, -1, j, m))
			}
			if m > 0 {
				prevB = bwd[j*M+m-1]
			}
			bt := s.Compute(nB.With(j, m), srv.ComputeEngines[g], stg[j].BwdTime, ready, prevB, gr, actUp)
			bt.SetTag(tag(trace.KindCompute, g, -1, j, m))
			bwd[j*M+m] = bt
		}

		// Flush accumulated gradients to DRAM for the CPU optimizer, then
		// free the stage.
		flush := s.Transfer(nGF.With(j), down, srv.Route(hw.GPUEnd(g), hw.DRAMEnd),
			stg[j].GradBytes, prioGradFlush, bwd[j*M+M-1])
		flush.SetTag(tag(trace.KindGradFlush, g, -1, j, -1))
		freeB[j] = s.Free(nFreeB.With(j), mem, stg[j].MemBwd(), flush)

		// Snapshot the stage's share of the training state once its
		// gradients have landed in DRAM (the CPU optimizer updates the
		// master copy there): a host-side write that never touches GPU
		// links, contending only on the DRAM bus (or the SSD path).
		if cfg.Checkpoint != nil && cfg.Checkpoint.Bytes > 0 {
			dst := hw.DRAMEnd
			if cfg.Checkpoint.ToSSD {
				dst = hw.SSDEnd
			}
			share := cfg.Checkpoint.Bytes / float64(S)
			if totalParam > 0 {
				share = cfg.Checkpoint.Bytes * stg[j].ParamBytes / totalParam
			}
			ck := s.Transfer(nCK.With(j), nil, srv.Route(hw.DRAMEnd, dst), share, prioGradFlush, flush)
			ck.SetTag(tag(trace.KindCheckpoint, -1, -1, j, -1))
		}
	}

	// 2SM computes; the other tasks are transfers and a few joins,
	// allocs and frees per stage.
	rec.Grow(srv.Sim.NumTasks()-2*S*M, 2*S*M)
	return st, nil
}

// Run executes the built step under the given fault and checksum
// configuration and returns the measured result. A step runs once: a
// second Run returns an error before it injects any fault.
func (st *MobiusStep) Run(faults *fault.Spec, checksums sim.ChecksumConfig) (*Result, error) {
	if st.ran {
		return nil, errStepRan
	}
	st.ran = true
	res := &Result{Recorder: st.rec, Server: st.srv}
	st.srv.Sim.Checksums = checksums
	if err := applyFaults(st.srv, faults, res); err != nil {
		return nil, err
	}
	if st.oom {
		res.OOM = true
		return res, nil
	}
	return Finish(st.srv, res)
}
