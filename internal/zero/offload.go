package zero

import (
	"fmt"

	"mobius/internal/hw"
	"mobius/internal/pipeline"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// RunOffload simulates ZeRO-Offload [37] (§5): FP16 parameters stay
// replicated in every GPU's memory; gradients are reduced across GPUs
// and offloaded to DRAM, where the CPU optimizer updates the FP32 master
// copy, and the refreshed FP16 parameters are gathered back. Because
// every GPU holds a full parameter copy, the trainable model scale is
// bounded by a single GPU's memory — the limitation ZeRO-Infinity (and
// Mobius) remove.
func RunOffload(topo *hw.Topology, cfg Config) (*pipeline.Result, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("zero: profile is required")
	}
	N := topo.NumGPUs()

	srv, err := hw.Build(topo)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	srv.Sim.Observe(rec)
	res := &pipeline.Result{System: "ZeRO-Offload", Recorder: rec, Server: srv}

	layers := cfg.Profile.Layers
	L := len(layers)

	// OOM check: the full FP16 model plus working set must fit on one GPU.
	var paramBytes, maxWorking, maxAct float64
	for _, l := range layers {
		paramBytes += l.ParamBytes
		if l.WorkingBytes > maxWorking {
			maxWorking = l.WorkingBytes
		}
		if l.ActOutBytes > maxAct {
			maxAct = l.ActOutBytes
		}
	}
	if paramBytes+maxWorking+2*maxAct > topo.GPUMem(0) {
		res.OOM = true
		return res, nil
	}

	s := srv.Sim
	fromDRAM, toDRAM := hostRoutes(srv, hw.DRAMEnd)
	p2p := peerRoutes(srv)
	var nm pipeline.Namer
	tag := func(kind trace.Kind, gpu, peer, layer int) trace.Tag {
		return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: layer, Microbatch: -1}
	}

	// Forward: parameters are resident, so only compute + checkpoints.
	fwdDone := make([][]*sim.Task, L)
	for l := 0; l < L; l++ {
		fwdDone[l] = make([]*sim.Task, N)
		for g := 0; g < N; g++ {
			var deps []*sim.Task
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

	// Backward per layer: compute, reduce-scatter gradients across GPUs
	// (staged through the host on commodity topologies), flush each
	// reduced shard to DRAM for the CPU optimizer, then gather the
	// refreshed FP16 parameters back.
	bwdDone := make([][]*sim.Task, L)
	for l := L - 1; l >= 0; l-- {
		bwdDone[l] = make([]*sim.Task, N)
		shard := layers[l].ParamBytes / float64(N)
		for g := 0; g < N; g++ {
			var deps []*sim.Task
			if l < L-1 {
				deps = append(deps, bwdDone[l+1][g])
			} else {
				deps = append(deps, fwdDone[L-1]...)
			}
			if l > 0 && layers[l-1].ActOutBytes > 0 {
				au := s.Transfer(nm.Name2("AU", l, ".g", g), srv.UploadEngines[g],
					fromDRAM[g], layers[l-1].ActOutBytes, 0, deps...)
				au.Tag = tag(trace.KindActUpload, g, -1, l)
				deps = append(deps, au)
			}
			c := s.Compute(nm.Name2("B", l, ".g", g), srv.ComputeEngines[g], layers[l].BwdTime, deps...)
			c.Tag = tag(trace.KindCompute, g, -1, l)
			bwdDone[l][g] = c

			// Reduce-scatter: this GPU sends the other GPUs' shards.
			var rs []*sim.Task
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nm.Name3("RS", l, ".g", g, "-", h), srv.DownloadEngine[g],
					p2p[g*N+h], shard, 0, c)
				ex.Tag = tag(trace.KindCollective, g, h, l)
				rs = append(rs, ex)
			}
			// Flush the reduced shard, then pull the refreshed shard and
			// exchange it with the peers (the parameter refresh path).
			gf := s.Transfer(nm.Name2("GF", l, ".g", g), srv.DownloadEngine[g],
				toDRAM[g], shard, 0, append(rs, c)...)
			gf.Tag = tag(trace.KindGradFlush, g, -1, l)
			pu := s.Transfer(nm.Name2("PU", l, ".g", g), srv.UploadEngines[g],
				fromDRAM[g], shard, 0, gf)
			pu.Tag = tag(trace.KindParamUpload, g, -1, l)
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nm.Name3("PX", l, ".g", g, "-", h), srv.DownloadEngine[g],
					p2p[g*N+h], shard, 0, pu)
				ex.Tag = tag(trace.KindCollective, g, h, l)
			}
		}
	}

	if err := srv.RouteErr(); err != nil {
		return nil, fmt.Errorf("zero: offload schedule: %w", err)
	}
	end, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("zero: offload schedule: %w", err)
	}
	res.StepTime = end
	return res, nil
}

// RunInfinityNVMe simulates ZeRO-Infinity with NVMe offload [36] (§5):
// the same communication pattern as ZeRO-3 with heterogeneous memory,
// but parameter shards and gradients live on the SSD tier, whose few
// GB/s of bandwidth bottleneck every gather — the reason Mobius extends
// GPU memory with DRAM only (§3.1).
func RunInfinityNVMe(topo *hw.Topology, cfg Config) (*pipeline.Result, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("zero: profile is required")
	}
	if !topo.HasSSD() {
		return nil, fmt.Errorf("zero: topology %q has no NVMe tier (use WithSSD)", topo.Name)
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
	res := &pipeline.Result{System: "ZeRO-Infinity (NVMe)", Recorder: rec, Server: srv}

	s := srv.Sim
	layers := cfg.Profile.Layers
	L := len(layers)
	fromSSD, toSSD := hostRoutes(srv, hw.SSDEnd)
	fromDRAM, toDRAM := hostRoutes(srv, hw.DRAMEnd)
	p2p := peerRoutes(srv)
	var nm pipeline.Namer
	tag := func(kind trace.Kind, gpu, peer, layer int) trace.Tag {
		return trace.Tag{Kind: kind, GPU: gpu, PeerGPU: peer, Stage: layer, Microbatch: -1}
	}

	gather := func(prefix string, l int, trigger *sim.Task) *sim.Task {
		shard := layers[l].ParamBytes / float64(N)
		done := make([]*sim.Task, 0, N*N)
		for g := 0; g < N; g++ {
			up := s.Transfer(nm.Name2(prefix, l, ".shard", g), srv.UploadEngines[g],
				fromSSD[g], shard, 0, trigger)
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

	fwdDone := make([][]*sim.Task, L)
	for l := 0; l < L; l++ {
		var trigger *sim.Task
		if l >= look {
			trigger = fwdDone[l-look][0]
		}
		g := gather("gf", l, trigger)
		fwdDone[l] = make([]*sim.Task, N)
		for gi := 0; gi < N; gi++ {
			deps := []*sim.Task{g}
			if l > 0 {
				deps = append(deps, fwdDone[l-1][gi])
			}
			c := s.Compute(nm.Name2("F", l, ".g", gi), srv.ComputeEngines[gi], layers[l].FwdTime, deps...)
			c.Tag = tag(trace.KindCompute, gi, -1, l)
			fwdDone[l][gi] = c
			if layers[l].ActOutBytes > 0 {
				off := s.Transfer(nm.Name2("O", l, ".g", gi), srv.DownloadEngine[gi],
					toDRAM[gi], layers[l].ActOutBytes, 0, c)
				off.Tag = tag(trace.KindActOffload, gi, -1, l)
			}
		}
	}

	bwdDone := make([][]*sim.Task, L)
	for l := L - 1; l >= 0; l-- {
		var trigger *sim.Task
		if l+look < L {
			trigger = bwdDone[l+look][0]
		} else {
			trigger = s.After(nm.Name("fwdDrain", l, ""), fwdDone[L-1]...)
		}
		g := gather("gb", l, trigger)
		bwdDone[l] = make([]*sim.Task, N)
		for gi := 0; gi < N; gi++ {
			deps := []*sim.Task{g}
			if l < L-1 {
				deps = append(deps, bwdDone[l+1][gi])
			}
			if l > 0 && layers[l-1].ActOutBytes > 0 {
				au := s.Transfer(nm.Name2("AU", l, ".g", gi), srv.UploadEngines[gi],
					fromDRAM[gi], layers[l-1].ActOutBytes, 0, g)
				au.Tag = tag(trace.KindActUpload, gi, -1, l)
				deps = append(deps, au)
			}
			c := s.Compute(nm.Name2("B", l, ".g", gi), srv.ComputeEngines[gi], layers[l].BwdTime, deps...)
			c.Tag = tag(trace.KindCompute, gi, -1, l)
			bwdDone[l][gi] = c
			gf := s.Transfer(nm.Name2("GF", l, ".g", gi), srv.DownloadEngine[gi],
				toSSD[gi], layers[l].GradBytes, 0, c)
			gf.Tag = tag(trace.KindGradFlush, gi, -1, l)
		}
	}

	if err := srv.RouteErr(); err != nil {
		return nil, fmt.Errorf("zero: nvme schedule: %w", err)
	}
	end, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("zero: nvme schedule: %w", err)
	}
	res.StepTime = end
	return res, nil
}
