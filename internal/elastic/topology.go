package elastic

import (
	"fmt"
	"strings"

	"mobius/internal/fault"
	"mobius/internal/hw"
)

// SurvivingTopology derives the machine left after the spec's permanent
// failures: the dead GPUs (fault.Spec.DeadGPUs) are removed, root
// complexes left without GPUs disappear, and GPU ids and root-complex
// indices are renumbered densely so the planner sees an ordinary
// topology. The returned gpuMap translates old GPU ids to new ones (-1
// for a dead GPU). DRAM, NVLink, the SSD tier and the transfer latency
// carry over unchanged — the host side of the machine survives a device
// failure.
func SurvivingTopology(topo *hw.Topology, spec *fault.Spec) (*hw.Topology, []int, error) {
	surv, gpuMap, _, err := survive(topo, spec)
	return surv, gpuMap, err
}

func survive(topo *hw.Topology, spec *fault.Spec) (*hw.Topology, []int, []int, error) {
	if !spec.HasPermanent() {
		return nil, nil, nil, fmt.Errorf("elastic: spec declares no permanent failure to survive")
	}
	dead, err := spec.DeadGPUs(topo)
	if err != nil {
		return nil, nil, nil, err
	}
	deadSet := make(map[int]bool, len(dead))
	for _, id := range dead {
		deadSet[id] = true
	}

	gpuMap := make([]int, len(topo.GPUs))
	rcMap := make([]int, len(topo.RootComplexBW))
	for i := range gpuMap {
		gpuMap[i] = -1
	}
	for i := range rcMap {
		rcMap[i] = -1
	}

	surv := &hw.Topology{
		Name:            fmt.Sprintf("%s minus %d GPU(s)", topo.Name, len(dead)),
		DRAMBW:          topo.DRAMBW,
		DRAMBytes:       topo.DRAMBytes,
		NVLinkBW:        topo.NVLinkBW,
		TransferLatency: topo.TransferLatency,
		SSDBW:           topo.SSDBW,
		SSDBytes:        topo.SSDBytes,
	}
	for _, g := range topo.GPUs {
		if deadSet[g.ID] {
			continue
		}
		rc := g.RootComplex
		if rcMap[rc] < 0 {
			rcMap[rc] = len(surv.RootComplexBW)
			surv.RootComplexBW = append(surv.RootComplexBW, topo.RootComplexBW[rc])
		}
		gpuMap[g.ID] = len(surv.GPUs)
		surv.GPUs = append(surv.GPUs, hw.GPU{ID: gpuMap[g.ID], Spec: g.Spec, RootComplex: rcMap[rc]})
	}
	if len(surv.GPUs) == 0 {
		return nil, nil, nil, fmt.Errorf("elastic: permanent failures leave no surviving GPU on %q", topo.Name)
	}
	if err := surv.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return surv, gpuMap, rcMap, nil
}

// remapSpec translates the link degradation windows of a spec onto the
// renumbered surviving topology: per-GPU link names follow gpuMap, root
// complexes follow rcMap, and windows on dead hardware are dropped (the
// fault died with the device). Permanent clauses are removed — the
// failure already happened. Returns nil when nothing survives translation.
func remapSpec(spec *fault.Spec, gpuMap, rcMap []int) *fault.Spec {
	if spec == nil {
		return nil
	}
	out := &fault.Spec{Seed: spec.Seed}
	for _, l := range spec.Links {
		if name, ok := remapName(l.Link, gpuMap, rcMap); ok {
			l.Link = name
			out.Links = append(out.Links, l)
		}
	}
	if out.Empty() {
		return nil
	}
	return out
}

// remapName translates one resource name ("rc0", "gpu3.link",
// "gpu1.nvlink", "drambus", "ssd") onto the renumbered topology; ok is
// false when the resource died with the failure.
func remapName(name string, gpuMap, rcMap []int) (string, bool) {
	switch {
	case name == "drambus" || name == "ssd":
		return name, true
	case strings.HasPrefix(name, "rc"):
		var rc int
		if _, err := fmt.Sscanf(name, "rc%d", &rc); err != nil || rc >= len(rcMap) || rcMap[rc] < 0 {
			return "", false
		}
		return fmt.Sprintf("rc%d", rcMap[rc]), true
	case strings.HasPrefix(name, "gpu"):
		var id int
		var suffix string
		if _, err := fmt.Sscanf(name, "gpu%d.%s", &id, &suffix); err != nil || id >= len(gpuMap) || gpuMap[id] < 0 {
			return "", false
		}
		return fmt.Sprintf("gpu%d.%s", gpuMap[id], suffix), true
	}
	return "", false
}
