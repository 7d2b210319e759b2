// Package zero models DeepSpeed's ZeRO-3 data parallelism with
// heterogeneous memory (ZeRO-Infinity style offload), the paper's main
// baseline (§2.3). Model states live in DRAM; every GPU processes its own
// microbatch of every layer, so each layer's FP16 parameters must be
// gathered onto all GPUs for forward and again for backward, and every
// GPU's gradients travel back to DRAM — the ~7.3x-model-size traffic and
// all-to-all contention the paper measures.
//
// The emitted communication pattern per layer and pass:
//
//   - shard upload: every GPU pulls its 1/N parameter shard from DRAM;
//   - all-gather: every GPU sends its shard to the other N-1 GPUs
//     (staged through DRAM on commodity servers without GPUDirect P2P);
//   - backward additionally flushes each GPU's full layer gradient to
//     DRAM for the CPU optimizer (the all-reduce-through-host path).
//
// DeepSpeed overlaps the next layer's gather with the current layer's
// compute (a bounded lookahead window), which the schedule reproduces.
package zero

import (
	"fmt"

	"mobius/internal/hw"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// Config describes one ZeRO-3 heterogeneous-memory training step.
type Config struct {
	Profile *profile.Profile
	// Lookahead is how many layers ahead parameter gathers may run
	// (default 2, mirroring DeepSpeed's prefetch window).
	Lookahead int
}

// Run simulates one DeepSpeed-ZeRO-3-with-heterogeneous-memory training
// step on the topology.
func Run(topo *hw.Topology, cfg Config) (*pipeline.Result, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("zero: profile is required")
	}
	look := cfg.Lookahead
	if look <= 0 {
		look = 2
	}
	N := topo.NumGPUs()

	srv, err := hw.Build(topo)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	srv.Sim.Observe(rec)
	res := &pipeline.Result{System: "DeepSpeed (hetero)", Recorder: rec, Server: srv}

	s := srv.Sim
	layers := cfg.Profile.Layers
	L := len(layers)
	fromDRAM, toDRAM := hostRoutes(srv, hw.DRAMEnd)
	p2p := peerRoutes(srv)
	var nm pipeline.Namer

	tag := func(kind trace.Kind, gpu, peer, layer int) trace.Tag {
		return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: layer, Microbatch: -1}
	}

	// gather emits the parameter-gather flows for layer l, named
	// prefix+l: N shard uploads plus N*(N-1) shard exchanges, gated on
	// the trigger task.
	gather := func(prefix string, l int, trigger *sim.Task) *sim.Task {
		shard := layers[l].ParamBytes / float64(N)
		done := make([]*sim.Task, 0, N*N)
		for g := 0; g < N; g++ {
			up := s.Transfer(nm.Name2(prefix, l, ".shard", g), srv.UploadEngines[g],
				fromDRAM[g], shard, 0, trigger)
			up.Tag = tag(trace.KindParamUpload, g, -1, l)
			done = append(done, up)
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nm.Name3(prefix, l, ".ag", g, "-", h), srv.DownloadEngine[g],
					p2p[g*N+h], shard, 0, up)
				ex.Tag = tag(trace.KindCollective, g, h, l)
				done = append(done, ex)
			}
		}
		return s.After(nm.Name(prefix, l, ".done"), done...)
	}

	// Forward.
	fwdDone := make([][]*sim.Task, L) // per layer, per GPU
	gatherF := make([]*sim.Task, L)
	for l := 0; l < L; l++ {
		var trigger *sim.Task
		if l >= look {
			// The gather window: layer l's gather may start once layer
			// l-look finished computing on GPU 0 (all GPUs advance in
			// lockstep in data parallelism).
			trigger = fwdDone[l-look][0]
		}
		gatherF[l] = gather("gf", l, trigger)
		fwdDone[l] = make([]*sim.Task, N)
		for g := 0; g < N; g++ {
			var deps []*sim.Task
			deps = append(deps, gatherF[l])
			if l > 0 {
				deps = append(deps, fwdDone[l-1][g])
			}
			c := s.Compute(nm.Name2("F", l, ".g", g), srv.ComputeEngines[g], layers[l].FwdTime, deps...)
			c.Tag = tag(trace.KindCompute, g, -1, l)
			fwdDone[l][g] = c
			if layers[l].ActOutBytes > 0 {
				off := s.Transfer(nm.Name2("O", l, ".g", g), srv.DownloadEngine[g],
					toDRAM[g], layers[l].ActOutBytes, 0, c)
				off.Tag = tag(trace.KindActOffload, g, -1, l)
			}
		}
	}

	// Backward.
	bwdDone := make([][]*sim.Task, L)
	for l := L - 1; l >= 0; l-- {
		var trigger *sim.Task
		if l+look < L {
			trigger = bwdDone[l+look][0]
		} else {
			// The first backward gathers wait for the forward to drain.
			trigger = s.After(nm.Name("fwdDrain", l, ""), fwdDone[L-1]...)
		}
		g := gather("gb", l, trigger)
		bwdDone[l] = make([]*sim.Task, N)
		for gi := 0; gi < N; gi++ {
			deps := []*sim.Task{g}
			if l < L-1 {
				deps = append(deps, bwdDone[l+1][gi])
			}
			// Re-upload the checkpointed input activation.
			if l > 0 && layers[l-1].ActOutBytes > 0 {
				au := s.Transfer(nm.Name2("AU", l, ".g", gi), srv.UploadEngines[gi],
					fromDRAM[gi], layers[l-1].ActOutBytes, 0, g)
				au.Tag = tag(trace.KindActUpload, gi, -1, l)
				deps = append(deps, au)
			}
			c := s.Compute(nm.Name2("B", l, ".g", gi), srv.ComputeEngines[gi], layers[l].BwdTime, deps...)
			c.Tag = tag(trace.KindCompute, gi, -1, l)
			bwdDone[l][gi] = c
			if topo.HasP2P() {
				// With GPUDirect P2P the gradients reduce-scatter over
				// NVLink, and only each GPU's reduced shard travels to
				// DRAM.
				shard := layers[l].GradBytes / float64(N)
				var rs []*sim.Task
				for h := 0; h < N; h++ {
					if h == gi {
						continue
					}
					ex := s.Transfer(nm.Name3("RS", l, ".g", gi, "-", h), srv.DownloadEngine[gi],
						p2p[gi*N+h], shard, 0, c)
					ex.Tag = tag(trace.KindCollective, gi, h, l)
					rs = append(rs, ex)
				}
				gf := s.Transfer(nm.Name2("GF", l, ".g", gi), srv.DownloadEngine[gi],
					toDRAM[gi], shard, 0, append(rs, c)...)
				gf.Tag = tag(trace.KindGradFlush, gi, -1, l)
				continue
			}
			// Without P2P every GPU's gradients travel to DRAM (the
			// all-reduce-through-host path of Eq. 2: N copies of the
			// layer gradient).
			gf := s.Transfer(nm.Name2("GF", l, ".g", gi), srv.DownloadEngine[gi],
				toDRAM[gi], layers[l].GradBytes, 0, c)
			gf.Tag = tag(trace.KindGradFlush, gi, -1, l)
		}
	}

	if err := srv.RouteErr(); err != nil {
		return nil, fmt.Errorf("zero: schedule: %w", err)
	}
	// 2LN computes; every other task but a few joins is a transfer.
	rec.Grow(s.NumTasks()-2*L*N, 2*L*N)
	end, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("zero: schedule: %w", err)
	}
	res.StepTime = end
	return res, nil
}

// RunPipelineMode simulates DeepSpeed's pipeline-parallel mode, which
// keeps all model states in GPU memory; it shares GPipe's execution model
// and OOM behaviour (§4, "Baselines").
func RunPipelineMode(topo *hw.Topology, prof *profile.Profile, microbatches int) (*pipeline.Result, error) {
	return pipeline.RunGPipe(topo, pipeline.GPipeConfig{
		Profile:      prof,
		Microbatches: microbatches,
		SystemName:   "DeepSpeed (pipeline)",
	})
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
