package zero

import (
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
	srv, res, err := newStep(topo, cfg, "ZeRO-Offload")
	if err != nil {
		return nil, err
	}
	N := topo.NumGPUs()
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
			c.Tag = layerTag(trace.KindCompute, g, -1, l)
			fwdDone[l][g] = c
			if layers[l].ActOutBytes > 0 {
				off := s.Transfer(nm.Name2("O", l, ".g", g), srv.DownloadEngine[g],
					toDRAM[g], layers[l].ActOutBytes, 0, c)
				off.Tag = layerTag(trace.KindActOffload, g, -1, l)
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
				au.Tag = layerTag(trace.KindActUpload, g, -1, l)
				deps = append(deps, au)
			}
			c := s.Compute(nm.Name2("B", l, ".g", g), srv.ComputeEngines[g], layers[l].BwdTime, deps...)
			c.Tag = layerTag(trace.KindCompute, g, -1, l)
			bwdDone[l][g] = c

			// Reduce-scatter: this GPU sends the other GPUs' shards.
			var rs []*sim.Task
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nm.Name3("RS", l, ".g", g, "-", h), srv.DownloadEngine[g],
					p2p[g*N+h], shard, 0, c)
				ex.Tag = layerTag(trace.KindCollective, g, h, l)
				rs = append(rs, ex)
			}
			// Flush the reduced shard, then pull the refreshed shard and
			// exchange it with the peers (the parameter refresh path).
			gf := s.Transfer(nm.Name2("GF", l, ".g", g), srv.DownloadEngine[g],
				toDRAM[g], shard, 0, append(rs, c)...)
			gf.Tag = layerTag(trace.KindGradFlush, g, -1, l)
			pu := s.Transfer(nm.Name2("PU", l, ".g", g), srv.UploadEngines[g],
				fromDRAM[g], shard, 0, gf)
			pu.Tag = layerTag(trace.KindParamUpload, g, -1, l)
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nm.Name3("PX", l, ".g", g, "-", h), srv.DownloadEngine[g],
					p2p[g*N+h], shard, 0, pu)
				ex.Tag = layerTag(trace.KindCollective, g, h, l)
			}
		}
	}

	return finish(srv, res, "offload schedule")
}
