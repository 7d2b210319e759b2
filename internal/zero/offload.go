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
	srv, res, err := newStep(topo, cfg)
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
	var (
		nF, nO, nAU, nB = s.Name("F", ".g"), s.Name("O", ".g"), s.Name("AU", ".g"), s.Name("B", ".g")
		nRS, nGF        = s.Name("RS", ".g", "-"), s.Name("GF", ".g")
		nPU, nPX        = s.Name("PU", ".g"), s.Name("PX", ".g", "-")
	)

	// Forward: parameters are resident, so only compute + checkpoints.
	fwdDone := make([][]*sim.Task, L)
	for l := 0; l < L; l++ {
		fwdDone[l] = make([]*sim.Task, N)
		for g := 0; g < N; g++ {
			var deps []*sim.Task
			if l > 0 {
				deps = append(deps, fwdDone[l-1][g])
			}
			c := s.Compute(nF.With(l, g), srv.ComputeEngines[g], layers[l].FwdTime, deps...)
			c.SetTag(layerTag(trace.KindCompute, g, -1, l))
			fwdDone[l][g] = c
			if layers[l].ActOutBytes > 0 {
				off := s.Transfer(nO.With(l, g), srv.DownloadEngine[g],
					srv.Route(hw.GPUEnd(g), hw.DRAMEnd), layers[l].ActOutBytes, 0, c)
				off.SetTag(layerTag(trace.KindActOffload, g, -1, l))
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
				au := s.Transfer(nAU.With(l, g), srv.UploadEngines[g],
					srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), layers[l-1].ActOutBytes, 0, deps...)
				au.SetTag(layerTag(trace.KindActUpload, g, -1, l))
				deps = append(deps, au)
			}
			c := s.Compute(nB.With(l, g), srv.ComputeEngines[g], layers[l].BwdTime, deps...)
			c.SetTag(layerTag(trace.KindCompute, g, -1, l))
			bwdDone[l][g] = c

			// Reduce-scatter: this GPU sends the other GPUs' shards.
			var rs []*sim.Task
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nRS.With(l, g, h), srv.DownloadEngine[g],
					srv.Route(hw.GPUEnd(g), hw.GPUEnd(h)), shard, 0, c)
				ex.SetTag(layerTag(trace.KindCollective, g, h, l))
				rs = append(rs, ex)
			}
			// Flush the reduced shard, then pull the refreshed shard and
			// exchange it with the peers (the parameter refresh path).
			gf := s.Transfer(nGF.With(l, g), srv.DownloadEngine[g],
				srv.Route(hw.GPUEnd(g), hw.DRAMEnd), shard, 0, append(rs, c)...)
			gf.SetTag(layerTag(trace.KindGradFlush, g, -1, l))
			pu := s.Transfer(nPU.With(l, g), srv.UploadEngines[g],
				srv.Route(hw.DRAMEnd, hw.GPUEnd(g)), shard, 0, gf)
			pu.SetTag(layerTag(trace.KindParamUpload, g, -1, l))
			for h := 0; h < N; h++ {
				if h == g {
					continue
				}
				ex := s.Transfer(nPX.With(l, g, h), srv.DownloadEngine[g],
					srv.Route(hw.GPUEnd(g), hw.GPUEnd(h)), shard, 0, pu)
				ex.SetTag(layerTag(trace.KindCollective, g, h, l))
			}
		}
	}

	return pipeline.Finish(srv, res)
}
