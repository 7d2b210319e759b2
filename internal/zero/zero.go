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
	return runZeRO3(topo, cfg, hw.DRAMEnd, "DeepSpeed (hetero)", "schedule")
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
	return runZeRO3(topo, cfg, hw.SSDEnd, "ZeRO-Infinity (NVMe)", "nvme schedule")
}

// runZeRO3 builds and simulates one ZeRO-3 step whose parameter shards
// and gradients live on tier; schedule names the step in errors.
func runZeRO3(topo *hw.Topology, cfg Config, tier hw.Endpoint, system, schedule string) (*pipeline.Result, error) {
	srv, res, err := newStep(topo, cfg, system)
	if err != nil {
		return nil, err
	}
	s := srv.Sim
	N := topo.NumGPUs()
	layers := cfg.Profile.Layers
	L := len(layers)
	fromTier, toTier := hostRoutes(srv, tier)
	fromDRAM, toDRAM := fromTier, toTier
	if !tier.IsDRAM() {
		fromDRAM, toDRAM = hostRoutes(srv, hw.DRAMEnd)
	}
	p2p := peerRoutes(srv)
	// DeepSpeed reduce-scatters over NVLink only when gradients go to
	// DRAM; with the SSD tier every GPU flushes its full gradients even
	// on a P2P server (a fidelity question tracked in ROADMAP.md).
	reduceScatter := tier.IsDRAM() && topo.HasP2P()
	var nm pipeline.Namer

	// gather emits the parameter-gather flows for layer l, named
	// prefix+l: N shard uploads plus N*(N-1) shard exchanges, gated on
	// the trigger task.
	gather := func(prefix string, l int, trigger *sim.Task) *sim.Task {
		shard := layers[l].ParamBytes / float64(N)
		done := make([]*sim.Task, 0, N*N)
		for g := 0; g < N; g++ {
			up := s.Transfer(nm.Name2(prefix, l, ".shard", g), srv.UploadEngines[g],
				fromTier[g], shard, 0, trigger)
			up.Tag = layerTag(trace.KindParamUpload, g, -1, l)
			done = append(done, up)
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nm.Name3(prefix, l, ".ag", g, "-", h), srv.DownloadEngine[g],
					p2p[g*N+h], shard, 0, up)
				ex.Tag = layerTag(trace.KindCollective, g, h, l)
				done = append(done, ex)
			}
		}
		return s.After(nm.Name(prefix, l, ".done"), done...)
	}

	// Forward.
	fwdDone := make([][]*sim.Task, L) // per layer, per GPU
	for l := 0; l < L; l++ {
		var trigger *sim.Task
		if l >= gatherWindow {
			// The gather window: layer l's gather may start once layer
			// l-gatherWindow finished computing on GPU 0 (all GPUs
			// advance in lockstep in data parallelism).
			trigger = fwdDone[l-gatherWindow][0]
		}
		gf := gather("gf", l, trigger)
		fwdDone[l] = make([]*sim.Task, N)
		for g := 0; g < N; g++ {
			deps := []*sim.Task{gf}
			if l > 0 {
				deps = append(deps, fwdDone[l-1][g])
			}
			c := s.Compute(nm.Name2("F", l, ".g", g), srv.ComputeEngines[g], layers[l].FwdTime, deps...)
			c.Tag = layerTag(trace.KindCompute, g, -1, l)
			fwdDone[l][g] = c
			if layers[l].ActOutBytes > 0 {
				off := s.Transfer(nm.Name2("O", l, ".g", g), srv.DownloadEngine[g],
					toDRAM[g], layers[l].ActOutBytes, 0, c)
				off.Tag = layerTag(trace.KindActOffload, g, -1, l)
			}
		}
	}

	// Backward.
	bwdDone := make([][]*sim.Task, L)
	for l := L - 1; l >= 0; l-- {
		var trigger *sim.Task
		if l+gatherWindow < L {
			trigger = bwdDone[l+gatherWindow][0]
		} else {
			// The first backward gathers wait for the forward to drain.
			trigger = s.After(nm.Name("fwdDrain", l, ""), fwdDone[L-1]...)
		}
		gb := gather("gb", l, trigger)
		bwdDone[l] = make([]*sim.Task, N)
		for g := 0; g < N; g++ {
			deps := []*sim.Task{gb}
			if l < L-1 {
				deps = append(deps, bwdDone[l+1][g])
			}
			// Re-upload the checkpointed input activation.
			if l > 0 && layers[l-1].ActOutBytes > 0 {
				au := s.Transfer(nm.Name2("AU", l, ".g", g), srv.UploadEngines[g],
					fromDRAM[g], layers[l-1].ActOutBytes, 0, gb)
				au.Tag = layerTag(trace.KindActUpload, g, -1, l)
				deps = append(deps, au)
			}
			c := s.Compute(nm.Name2("B", l, ".g", g), srv.ComputeEngines[g], layers[l].BwdTime, deps...)
			c.Tag = layerTag(trace.KindCompute, g, -1, l)
			bwdDone[l][g] = c
			// Every GPU flushes its layer gradient to the tier (the
			// all-reduce-through-host path of Eq. 2: N copies of the
			// layer gradient), or, after a reduce-scatter, only its
			// reduced shard.
			flush := layers[l].GradBytes
			var rs []*sim.Task
			if reduceScatter {
				flush /= float64(N)
				for h := 0; h < N; h++ {
					if h == g {
						continue
					}
					ex := s.Transfer(nm.Name3("RS", l, ".g", g, "-", h), srv.DownloadEngine[g],
						p2p[g*N+h], flush, 0, c)
					ex.Tag = layerTag(trace.KindCollective, g, h, l)
					rs = append(rs, ex)
				}
			}
			gf := s.Transfer(nm.Name2("GF", l, ".g", g), srv.DownloadEngine[g],
				toTier[g], flush, 0, append(rs, c)...)
			gf.Tag = layerTag(trace.KindGradFlush, g, -1, l)
		}
	}

	// 2LN computes; every other task but a few joins is a transfer.
	res.Recorder.Grow(s.NumTasks()-2*L*N, 2*L*N)
	return finish(srv, res, schedule)
}

// newStep checks cfg and builds the server one step runs on, with a
// trace recorder observing it.
func newStep(topo *hw.Topology, cfg Config, system string) (*hw.Server, *pipeline.Result, error) {
	if cfg.Profile == nil {
		return nil, nil, errNoProfile
	}
	srv, err := hw.Build(topo)
	if err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder()
	srv.Sim.Observe(rec)
	return srv, &pipeline.Result{System: system, Recorder: rec, Server: srv}, nil
}

// finish simulates the schedule built on srv into res; schedule names it
// in errors.
func finish(srv *hw.Server, res *pipeline.Result, schedule string) (*pipeline.Result, error) {
	if err := srv.RouteErr(); err != nil {
		return nil, fmt.Errorf("zero: %s: %w", schedule, err)
	}
	end, err := srv.Sim.Run()
	if err != nil {
		return nil, fmt.Errorf("zero: %s: %w", schedule, err)
	}
	res.StepTime = end
	return res, nil
}

// layerTag tags a baseline task; baselines have no microbatch axis.
func layerTag(kind trace.Kind, gpu, peer, layer int) trace.Tag {
	return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: layer, Microbatch: -1}
}

// hostRoutes resolves the host -> GPU g (up) and GPU g -> host (down)
// paths once per step. They go through srv.Route, so a routing error
// still lands in srv.RouteErr.
func hostRoutes(srv *hw.Server, host hw.Endpoint) (up, down [][]sim.PathElem) {
	n := srv.Topo.NumGPUs()
	up = make([][]sim.PathElem, n)
	down = make([][]sim.PathElem, n)
	for g := range up {
		up[g] = srv.Route(host, hw.GPUEnd(g))
		down[g] = srv.Route(hw.GPUEnd(g), host)
	}
	return up, down
}

// peerRoutes resolves every GPU g -> GPU h path once per step, at
// [g*N+h].
func peerRoutes(srv *hw.Server) [][]sim.PathElem {
	n := srv.Topo.NumGPUs()
	p := make([][]sim.PathElem, n*n)
	for g := 0; g < n; g++ {
		for h := 0; h < n; h++ {
			p[g*n+h] = srv.Route(hw.GPUEnd(g), hw.GPUEnd(h))
		}
	}
	return p
}
