package fault

import (
	"fmt"
	"sort"
	"strings"

	"mobius/internal/hw"
	"mobius/internal/sim"
)

// This file declares permanent failures — a GPU dropping off the bus, a
// PCIe link dying — and binds them to the simulator's failure events
// (sim.ScheduleFailure). Unlike the link degradations in fault.go, a
// permanent failure halts the run with a structured sim.ResourceLostError;
// the elastic package consumes the error to re-plan on the surviving
// topology.

// GPUFailFault removes one GPU permanently at time At: its compute and DMA
// engines stop and every flow crossing its PCIe (or NVLink) port is halted.
type GPUFailFault struct {
	GPU int `json:"gpu"`
	// At is the onset time in simulated seconds.
	At float64 `json:"at_s"`
}

// LinkFailFault kills one bandwidth resource permanently at time At. The
// link name follows the simulator resource naming: "rc0", "gpu3.link",
// "gpu1.nvlink". Failing "drambus" or "ssd" is accepted by the parser but
// is not survivable — no elastic recovery is possible without host memory.
type LinkFailFault struct {
	Link string `json:"link"`
	// At is the onset time in simulated seconds.
	At float64 `json:"at_s"`
}

// validatePermanent checks the permanent-failure clauses and their
// interaction with the other ones: a degradation window or corruption
// rule that targets a resource after its permanent death would be
// undefined interleaving, so the spec is rejected outright.
func (s *Spec) validatePermanent() error {
	if s.HorizonS < 0 {
		return fmt.Errorf("fault: negative horizon_s %g", s.HorizonS)
	}
	seenGPU := map[int]bool{}
	for i, g := range s.GPUFails {
		if g.GPU < 0 {
			return fmt.Errorf("fault: gpu_fails[%d]: negative gpu %d", i, g.GPU)
		}
		if g.At < 0 {
			return fmt.Errorf("fault: gpu_fails[%d] (gpu %d): negative onset %g", i, g.GPU, g.At)
		}
		if s.HorizonS > 0 && g.At >= s.HorizonS {
			return fmt.Errorf("fault: gpu_fails[%d] (gpu %d): onset %g outside horizon [0, %g)", i, g.GPU, g.At, s.HorizonS)
		}
		if seenGPU[g.GPU] {
			return fmt.Errorf("fault: gpu_fails[%d]: gpu %d fails twice", i, g.GPU)
		}
		seenGPU[g.GPU] = true
	}
	seenLink := map[string]bool{}
	for i, l := range s.LinkFails {
		if l.Link == "" {
			return fmt.Errorf("fault: link_fails[%d]: missing link name", i)
		}
		if l.At < 0 {
			return fmt.Errorf("fault: link_fails[%d] (%s): negative onset %g", i, l.Link, l.At)
		}
		if s.HorizonS > 0 && l.At >= s.HorizonS {
			return fmt.Errorf("fault: link_fails[%d] (%s): onset %g outside horizon [0, %g)", i, l.Link, l.At, s.HorizonS)
		}
		if seenLink[l.Link] {
			return fmt.Errorf("fault: link_fails[%d]: link %q fails twice", i, l.Link)
		}
		seenLink[l.Link] = true
	}

	// Resources dead from some onset onward, for overlap checks below.
	deadAt := map[string]float64{}
	for _, l := range s.LinkFails {
		deadAt[l.Link] = l.At
	}
	for _, g := range s.GPUFails {
		for _, name := range gpuResourceNames(g.GPU) {
			deadAt[name] = g.At
		}
	}
	for i, l := range s.Links {
		at, dead := deadAt[l.Link]
		if dead && (l.End == 0 || l.End > at) {
			return fmt.Errorf("fault: links[%d] (%s): degradation window [%g, %s) overlaps permanent failure of %q at t=%g",
				i, l.Link, l.Start, endLabel(l.End), l.Link, at)
		}
	}
	for i, c := range s.Corruptions {
		if at, dead := deadAt[c.Match]; dead {
			return fmt.Errorf("fault: corruptions[%d] (%s): corruption rule matches resource %q permanently failed at t=%g; "+
				"remove the rule or scope it to a surviving resource", i, c.Match, c.Match, at)
		}
	}
	return nil
}

// gpuResourceNames lists the bandwidth resources a GPU failure takes down.
func gpuResourceNames(gpu int) []string {
	return []string{fmt.Sprintf("gpu%d.link", gpu), fmt.Sprintf("gpu%d.nvlink", gpu)}
}

// HasPermanent reports whether the spec declares any permanent failure.
func (s *Spec) HasPermanent() bool {
	return s != nil && (len(s.GPUFails) > 0 || len(s.LinkFails) > 0)
}

// Permanent is one permanent failure in onset order, unified across the
// gpu_fail and link_fail clauses.
type Permanent struct {
	// Kind is "gpu_fail" or "link_fail".
	Kind string
	// GPU is the failed device (gpu_fail only).
	GPU int
	// Link is the failed resource name (link_fail only).
	Link string
	// At is the onset time in simulated seconds.
	At float64
}

func (p Permanent) String() string {
	if p.Kind == "gpu_fail" {
		return fmt.Sprintf("gpu%d fails at t=%.4g", p.GPU, p.At)
	}
	return fmt.Sprintf("link %s fails at t=%.4g", p.Link, p.At)
}

// Permanents returns the spec's permanent failures sorted by onset (ties:
// gpu_fail before link_fail, then spec order).
func (s *Spec) Permanents() []Permanent {
	if s == nil {
		return nil
	}
	var ps []Permanent
	for _, g := range s.GPUFails {
		ps = append(ps, Permanent{Kind: "gpu_fail", GPU: g.GPU, Link: "", At: g.At})
	}
	for _, l := range s.LinkFails {
		ps = append(ps, Permanent{Kind: "link_fail", GPU: -1, Link: l.Link, At: l.At})
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].At < ps[j].At })
	return ps
}

// WithoutPermanent returns a copy of the spec with the permanent-failure
// clauses (and the horizon that scopes them) removed — the conditions
// that keep holding on the surviving machine. Nil in, nil out.
func (s *Spec) WithoutPermanent() *Spec {
	if s == nil {
		return nil
	}
	c := *s
	c.GPUFails = nil
	c.LinkFails = nil
	c.HorizonS = 0
	return &c
}

// DeadGPUs maps the spec's permanent failures to the set of GPUs they
// remove from topo, sorted ascending. A gpu_fail removes its GPU; a
// link_fail removes the GPUs whose traffic cannot avoid the dead resource
// ("gpuN.link"/"gpuN.nvlink" → GPU N, "rcK" → every GPU under root complex
// K). Failing "drambus" or "ssd" returns an error: all checkpoint and
// staging traffic crosses host memory, so the loss is not survivable.
func (s *Spec) DeadGPUs(topo *hw.Topology) ([]int, error) {
	dead := map[int]bool{}
	for _, g := range s.GPUFails {
		dead[g.GPU] = true
	}
	for i, l := range s.LinkFails {
		switch {
		case l.Link == "drambus" || l.Link == "ssd":
			return nil, fmt.Errorf("fault: link_fails[%d]: permanent failure of %q is not survivable (all staging traffic crosses it)", i, l.Link)
		case strings.HasPrefix(l.Link, "rc"):
			var rc int
			if _, err := fmt.Sscanf(l.Link, "rc%d", &rc); err != nil {
				return nil, fmt.Errorf("fault: link_fails[%d]: cannot map link %q to GPUs", i, l.Link)
			}
			for _, g := range topo.GPUs {
				if g.RootComplex == rc {
					dead[g.ID] = true
				}
			}
		case strings.HasPrefix(l.Link, "gpu"):
			var id int
			var suffix string
			if _, err := fmt.Sscanf(l.Link, "gpu%d.%s", &id, &suffix); err != nil || (suffix != "link" && suffix != "nvlink") {
				return nil, fmt.Errorf("fault: link_fails[%d]: cannot map link %q to GPUs", i, l.Link)
			}
			dead[id] = true
		default:
			return nil, fmt.Errorf("fault: link_fails[%d]: cannot map link %q to GPUs", i, l.Link)
		}
	}
	ids := make([]int, 0, len(dead))
	for id := range dead {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// applyPermanent binds the permanent-failure clauses to srv, scheduling one
// simulator failure event per clause. It rejects GPUs outside the topology
// and specs whose failures leave no surviving GPU — there is nothing to
// recover onto.
func applyPermanent(srv *hw.Server, spec *Spec, inj *Injection) error {
	n := len(srv.Topo.GPUs)
	deadGPUs := map[int]bool{}
	for i, g := range spec.GPUFails {
		if g.GPU >= n {
			return fmt.Errorf("fault: gpu_fails[%d]: gpu %d out of range (topology %q has %d GPUs)",
				i, g.GPU, srv.Topo.Name, n)
		}
		res := []*sim.Resource{srv.GPULinks[g.GPU]}
		if len(srv.NVLinks) > g.GPU {
			res = append(res, srv.NVLinks[g.GPU])
		}
		eng := []*sim.Engine{srv.ComputeEngines[g.GPU], srv.UploadEngines[g.GPU], srv.DownloadEngine[g.GPU]}
		srv.Sim.ScheduleFailure(g.At, fmt.Sprintf("gpu%d", g.GPU), res, eng)
		deadGPUs[g.GPU] = true
		inj.PermanentFailures++
	}
	for i, l := range spec.LinkFails {
		res := srv.ResourceByName(l.Link)
		if res == nil {
			return fmt.Errorf("fault: link_fails[%d]: no resource %q on topology %q (have %v)",
				i, l.Link, srv.Topo.Name, srv.ResourceNames())
		}
		srv.Sim.ScheduleFailure(l.At, l.Link, []*sim.Resource{res}, nil)
		inj.PermanentFailures++
	}
	if spec.HasPermanent() {
		if dead, err := spec.DeadGPUs(srv.Topo); err == nil {
			if len(dead) >= n {
				return fmt.Errorf("fault: permanent failures remove all %d GPUs of topology %q — no surviving GPU to recover onto", n, srv.Topo.Name)
			}
		}
	}
	return nil
}
