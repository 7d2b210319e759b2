package zero

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
)

// sprintfNames lists, in creation order, the task names Run emitted when
// it formatted each one with fmt.Sprintf: the reference the strconv
// formatting must reproduce (the names appear in deadlock, OOM and
// corruption errors). reduceScatter adds the P2P gradient exchanges.
func sprintfNames(p *profile.Profile, N, look int, reduceScatter bool) []string {
	layers := p.Layers
	L := len(layers)
	var names []string
	gather := func(name string) {
		for g := 0; g < N; g++ {
			names = append(names, fmt.Sprintf("%s.shard%d", name, g))
			for h := 0; h < N; h++ {
				if h != g {
					names = append(names, fmt.Sprintf("%s.ag%d-%d", name, g, h))
				}
			}
		}
		names = append(names, name+".done")
	}
	for l := 0; l < L; l++ {
		gather(fmt.Sprintf("gf%d", l))
		for g := 0; g < N; g++ {
			names = append(names, fmt.Sprintf("F%d.g%d", l, g))
			if layers[l].ActOutBytes > 0 {
				names = append(names, fmt.Sprintf("O%d.g%d", l, g))
			}
		}
	}
	for l := L - 1; l >= 0; l-- {
		if l+look >= L {
			names = append(names, fmt.Sprintf("fwdDrain%d", l))
		}
		gather(fmt.Sprintf("gb%d", l))
		for g := 0; g < N; g++ {
			if l > 0 && layers[l-1].ActOutBytes > 0 {
				names = append(names, fmt.Sprintf("AU%d.g%d", l, g))
			}
			names = append(names, fmt.Sprintf("B%d.g%d", l, g))
			if reduceScatter {
				for h := 0; h < N; h++ {
					if h != g {
						names = append(names, fmt.Sprintf("RS%d.g%d-%d", l, g, h))
					}
				}
			}
			names = append(names, fmt.Sprintf("GF%d.g%d", l, g))
		}
	}
	return names
}

// nameLog records every finished task's name at its id.
type nameLog struct{ names []string }

func (n *nameLog) TaskStarted(*sim.Task, sim.Time) {}

func (n *nameLog) TaskFinished(t *sim.Task, _ sim.Time) {
	for len(n.names) <= t.ID() {
		n.names = append(n.names, "")
	}
	n.names[t.ID()] = t.Name()
}

// TestRunNamesMatchSprintf replays Run's DAG and requires every task
// name, in creation order, to equal the fmt.Sprintf format, on a
// commodity 2+2 and 4+4 server and on a P2P server (the reduce-scatter
// branch). RunInfinityNVMe on the same servers with an SSD must emit
// Run's names in Run's order, less the reduce-scatter, which only the
// DRAM tier takes.
func TestRunNamesMatchSprintf(t *testing.T) {
	for _, c := range []struct {
		m    model.Config
		topo *hw.Topology
	}{
		{model.GPT8B, hw.Commodity(hw.RTX3090Ti, 2, 2)},
		{model.GPT51B, hw.Commodity(hw.RTX3090Ti, 4, 4)},
		{model.GPT8B, hw.DataCenter(hw.V100, 4, 300*hw.GB)},
	} {
		p := prof(t, c.m)
		clone := *c.topo
		ssd := (&clone).WithSSD(hw.CommoditySSDBW, hw.CommoditySSDBytes)
		for _, r := range []struct {
			name string
			run  func(*hw.Topology, Config) (*pipeline.Result, error)
			topo *hw.Topology
			want []string
		}{
			{"Run", Run, c.topo, sprintfNames(p, c.topo.NumGPUs(), 2, c.topo.HasP2P())},
			{"RunInfinityNVMe", RunInfinityNVMe, ssd, sprintfNames(p, c.topo.NumGPUs(), 2, false)},
		} {
			label := r.name + " " + c.m.Name + " on " + r.topo.Name
			res, err := r.run(r.topo, Config{Profile: p})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			log := &nameLog{}
			s := res.Server.Sim
			s.Observe(log)
			s.Reset()
			if _, err := s.Run(); err != nil {
				t.Fatalf("%s: replay: %v", label, err)
			}
			if len(log.names) != len(r.want) || s.NumTasks() != len(r.want) {
				t.Fatalf("%s: %d tasks (%d finished), Sprintf reference has %d", label, s.NumTasks(), len(log.names), len(r.want))
			}
			for id := range r.want {
				if log.names[id] != r.want[id] {
					t.Fatalf("%s: task %d is named %q, Sprintf gives %q", label, id, log.names[id], r.want[id])
				}
			}
		}
	}
}

// TestBadRouteSurfaces pins that resolving routes once per step keeps
// routing errors visible: a host route to an SSD tier the topology lacks
// is recorded in srv.RouteErr, while every DRAM and GPU route is clean.
func TestBadRouteSurfaces(t *testing.T) {
	srv, err := hw.Build(hw.Commodity(hw.RTX3090Ti, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	up, down := hostRoutes(srv, hw.DRAMEnd)
	p2p := peerRoutes(srv)
	if err := srv.RouteErr(); err != nil {
		t.Fatalf("DRAM and GPU routes recorded an error: %v", err)
	}
	if slices.ContainsFunc(up, func(p []sim.PathElem) bool { return len(p) == 0 }) ||
		slices.ContainsFunc(down, func(p []sim.PathElem) bool { return len(p) == 0 }) ||
		len(p2p) != 16 || len(p2p[1]) == 0 || p2p[0] != nil {
		t.Fatal("resolved routes are missing paths")
	}
	up, _ = hostRoutes(srv, hw.SSDEnd)
	if up[0] != nil {
		t.Fatal("a route to a missing SSD tier returned a path")
	}
	if err := srv.RouteErr(); err == nil || !strings.Contains(err.Error(), "SSD") {
		t.Fatalf("route to a missing SSD tier: RouteErr = %v", err)
	}
}
