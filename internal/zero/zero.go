// Package zero models DeepSpeed's ZeRO-3 data parallelism with
// heterogeneous memory, the paper's main baseline (§2.3), and the §5
// baselines built on it. Model states live on an offload tier: DRAM for
// DeepSpeed hetero (Run), the NVMe SSD for ZeRO-Infinity
// (RunInfinityNVMe). Every GPU processes its own microbatch of every
// layer, so each layer's FP16 parameters must be gathered onto all GPUs
// for forward and again for backward, and every GPU's gradients travel
// back to the tier — the ~7.3x-model-size traffic and all-to-all
// contention the paper measures.
//
// The emitted communication pattern per layer and pass:
//
//   - shard upload: every GPU pulls its 1/N parameter shard from the
//     offload tier;
//   - all-gather: every GPU sends its shard to the other N-1 GPUs
//     (staged through DRAM on commodity servers without GPUDirect P2P);
//   - backward additionally flushes each GPU's full layer gradient to
//     the tier for the CPU optimizer (the all-reduce-through-host path);
//     with P2P and the DRAM tier the gradients reduce-scatter over
//     NVLink first, and only each GPU's reduced shard is flushed.
//
// Activation checkpoints are offloaded to DRAM and re-uploaded for
// backward on either tier. DeepSpeed overlaps the next layer's gather
// with the current layer's compute (a bounded lookahead window), which
// the schedule reproduces.
package zero

import (
	"errors"
	"fmt"

	"mobius/internal/hw"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// gatherWindow is how many layers ahead parameter gathers may run,
// mirroring DeepSpeed's prefetch window.
const gatherWindow = 2

var errNoProfile = errors.New("zero: profile is required")

// Config describes one baseline training step.
type Config struct {
	Profile *profile.Profile
}

// Run simulates one DeepSpeed-ZeRO-3-with-heterogeneous-memory training
// step on the topology, with DRAM as the offload tier.
func Run(topo *hw.Topology, cfg Config) (*pipeline.Result, error) {
	return runZeRO3(topo, cfg, hw.DRAMEnd)
}

// RunInfinityNVMe simulates ZeRO-Infinity with NVMe offload [36] (§5):
// the same communication pattern as ZeRO-3 with heterogeneous memory,
// but parameter shards and gradients live on the SSD tier, whose few
// GB/s of bandwidth bottleneck every gather — the reason Mobius extends
// GPU memory with DRAM only (§3.1).
func RunInfinityNVMe(topo *hw.Topology, cfg Config) (*pipeline.Result, error) {
	if cfg.Profile == nil {
		return nil, errNoProfile
	}
	if !topo.HasSSD() {
		return nil, fmt.Errorf("zero: topology %q has no NVMe tier (use WithSSD)", topo.Name)
	}
	return runZeRO3(topo, cfg, hw.SSDEnd)
}

// runZeRO3 builds and simulates one ZeRO-3 step whose parameter shards
// and gradients live on tier.
func runZeRO3(topo *hw.Topology, cfg Config, tier hw.Endpoint) (*pipeline.Result, error) {
	srv, res, err := newStep(topo, cfg)
	if err != nil {
		return nil, err
	}
	s := srv.Sim
	N := topo.NumGPUs()
	layers := cfg.Profile.Layers
	L := len(layers)
	// DeepSpeed reduce-scatters over NVLink only when gradients go to
	// DRAM; with the SSD tier every GPU flushes its full gradients even
	// on a P2P server (a fidelity question tracked in ROADMAP.md).
	reduceScatter := tier.IsDRAM() && topo.HasP2P()

	// gather emits the parameter-gather flows for layer l, named
	// prefix+l: N shard uploads plus N*(N-1) shard exchanges, gated on
	// the trigger task. done collects them for the join, reused across
	// gathers.
	done := make([]*sim.Task, 0, N*N)
	gather := func(prefix string, l int, trigger *sim.Task) *sim.Task {
		shard := layers[l].ParamBytes / float64(N)
		shardName, agName := s.Name(prefix, ".shard"), s.Name(prefix, ".ag", "-")
		done = done[:0]
		for g := 0; g < N; g++ {
			up := s.Transfer(shardName.With(l, g), srv.UploadEngines[g],
				srv.Route(tier, hw.GPUEnd(g)), shard, 0, trigger)
			up.SetTag(layerTag(trace.KindParamUpload, g, -1, l))
			done = append(done, up)
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(agName.With(l, g, h), srv.DownloadEngine[g],
					srv.Route(hw.GPUEnd(g), hw.GPUEnd(h)), shard, 0, up)
				ex.SetTag(layerTag(trace.KindCollective, g, h, l))
				done = append(done, ex)
			}
		}
		return s.After(s.Name(prefix, ".done").With(l), done...)
	}
	var (
		nF, nO, nFwdDrain = s.Name("F", ".g"), s.Name("O", ".g"), s.Name("fwdDrain")
		nAU, nB, nRS, nGF = s.Name("AU", ".g"), s.Name("B", ".g"), s.Name("RS", ".g", "-"), s.Name("GF", ".g")
	)

	// Forward. The per-layer, per-GPU handles live in flat slices
	// indexed l*N+g; deps is the dependency list every task reuses.
	fwdDone := make([]*sim.Task, L*N)
	deps := make([]*sim.Task, 0, N+1)
	for l := 0; l < L; l++ {
		var trigger *sim.Task
		if l >= gatherWindow {
			// The gather window: layer l's gather may start once layer
			// l-gatherWindow finished computing on GPU 0 (all GPUs
			// advance in lockstep in data parallelism).
			trigger = fwdDone[(l-gatherWindow)*N]
		}
		gf := gather("gf", l, trigger)
		for g := 0; g < N; g++ {
			deps = append(deps[:0], gf)
			if l > 0 {
				deps = append(deps, fwdDone[(l-1)*N+g])
			}
			c := s.Compute(nF.With(l, g), srv.ComputeEngines[g], layers[l].FwdTime, deps...)
			c.SetTag(layerTag(trace.KindCompute, g, -1, l))
			fwdDone[l*N+g] = c
			if layers[l].ActOutBytes > 0 {
				off := s.Transfer(nO.With(l, g), srv.DownloadEngine[g],
					srv.Route(hw.GPUEnd(g), hw.DRAMEnd), layers[l].ActOutBytes, 0, c)
				off.SetTag(layerTag(trace.KindActOffload, g, -1, l))
			}
		}
	}

	// Backward.
	bwdDone := make([]*sim.Task, L*N)
	for l := L - 1; l >= 0; l-- {
		var trigger *sim.Task
		if l+gatherWindow < L {
			trigger = bwdDone[(l+gatherWindow)*N]
		} else {
			// The first backward gathers wait for the forward to drain.
			trigger = s.After(nFwdDrain.With(l), fwdDone[(L-1)*N:]...)
		}
		gb := gather("gb", l, trigger)
		for g := 0; g < N; g++ {
			deps = append(deps[:0], gb)
			if l < L-1 {
				deps = append(deps, bwdDone[(l+1)*N+g])
			}
			// Re-upload the checkpointed input activation.
			if l > 0 && layers[l-1].ActOutBytes > 0 {
				au := s.Transfer(nAU.With(l, g), srv.UploadEngines[g],
					srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), layers[l-1].ActOutBytes, 0, gb)
				au.SetTag(layerTag(trace.KindActUpload, g, -1, l))
				deps = append(deps, au)
			}
			c := s.Compute(nB.With(l, g), srv.ComputeEngines[g], layers[l].BwdTime, deps...)
			c.SetTag(layerTag(trace.KindCompute, g, -1, l))
			bwdDone[l*N+g] = c
			// Every GPU flushes its layer gradient to the tier (the
			// all-reduce-through-host path of Eq. 2: N copies of the
			// layer gradient), or, after a reduce-scatter, only its
			// reduced shard; the flush waits on the exchanges, then c.
			flush := layers[l].GradBytes
			deps = deps[:0]
			if reduceScatter {
				flush /= float64(N)
				for h := 0; h < N; h++ {
					if h == g {
						continue
					}
					ex := s.Transfer(nRS.With(l, g, h), srv.DownloadEngine[g],
						srv.Route(hw.GPUEnd(g), hw.GPUEnd(h)), flush, 0, c)
					ex.SetTag(layerTag(trace.KindCollective, g, h, l))
					deps = append(deps, ex)
				}
			}
			gf := s.Transfer(nGF.With(l, g), srv.DownloadEngine[g],
				srv.Route(hw.GPUEnd(g), tier), flush, 0, append(deps, c)...)
			gf.SetTag(layerTag(trace.KindGradFlush, g, -1, l))
		}
	}

	// 2LN computes; every other task but a few joins is a transfer.
	res.Recorder.Grow(s.NumTasks()-2*L*N, 2*L*N)
	return pipeline.Finish(srv, res)
}

// newStep checks cfg and builds the server one step runs on, with an
// empty trace recorder that pipeline.Finish fills from the run's finished
// tasks.
func newStep(topo *hw.Topology, cfg Config) (*hw.Server, *pipeline.Result, error) {
	if cfg.Profile == nil {
		return nil, nil, errNoProfile
	}
	srv, err := hw.Build(topo)
	if err != nil {
		return nil, nil, err
	}
	return srv, &pipeline.Result{Recorder: trace.NewRecorder(), Server: srv}, nil
}

// layerTag tags a baseline task; baselines have no microbatch axis.
func layerTag(kind trace.Kind, gpu, peer, layer int) trace.Tag {
	return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: layer, Microbatch: -1}
}
