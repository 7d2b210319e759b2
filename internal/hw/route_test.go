package hw

import (
	"slices"
	"strings"
	"testing"

	"mobius/internal/sim"
)

// oracleHops is the resource list a transfer from src to dst crosses,
// written out from §2.2 independently of Route: nil for a same-GPU copy.
func oracleHops(srv *Server, src, dst Endpoint) []*sim.Resource {
	rcOf := func(g int) *sim.Resource { return srv.RootComplexes[srv.Topo.GPUs[g].RootComplex] }
	host := func(e Endpoint) []*sim.Resource {
		if e.IsSSD() {
			return []*sim.Resource{srv.DRAMBus, srv.SSDBus}
		}
		return []*sim.Resource{srv.DRAMBus}
	}
	switch {
	case src.IsSSD() || dst.IsSSD():
		other := src
		if other.IsSSD() {
			other = dst
		}
		if other.IsSSD() || other.IsDRAM() {
			return host(SSDEnd)
		}
		g := other.GPU()
		return append([]*sim.Resource{srv.GPULinks[g], rcOf(g)}, host(SSDEnd)...)
	case src.IsDRAM() && dst.IsDRAM():
		return host(DRAMEnd)
	case src.IsDRAM():
		g := dst.GPU()
		return append([]*sim.Resource{srv.GPULinks[g], rcOf(g)}, host(DRAMEnd)...)
	case dst.IsDRAM():
		g := src.GPU()
		return append([]*sim.Resource{srv.GPULinks[g], rcOf(g)}, host(DRAMEnd)...)
	}
	a, b := src.GPU(), dst.GPU()
	switch {
	case a == b:
		return nil
	case srv.Topo.HasP2P():
		return []*sim.Resource{srv.NVLinks[a], srv.NVLinks[b]}
	}
	return []*sim.Resource{srv.GPULinks[a], rcOf(a), srv.DRAMBus, rcOf(b), srv.GPULinks[b]}
}

// mergeHops applies the path merge rule: a resource listed again adds
// one to the weight of its first element.
func mergeHops(hops []*sim.Resource) []sim.PathElem {
	var out []sim.PathElem
	for _, r := range hops {
		if i := slices.IndexFunc(out, func(pe sim.PathElem) bool { return pe.Res == r }); i >= 0 {
			out[i].Weight++
			continue
		}
		out = append(out, sim.PathElem{Res: r, Weight: 1})
	}
	return out
}

// endpoints lists every endpoint of srv: its GPUs, DRAM and, with an
// NVMe tier, the SSD.
func endpoints(srv *Server) []Endpoint {
	var es []Endpoint
	for g := range srv.Topo.GPUs {
		es = append(es, GPUEnd(g))
	}
	es = append(es, DRAMEnd)
	if srv.Topo.HasSSD() {
		es = append(es, SSDEnd)
	}
	return es
}

// TestRouteTableMatchesOracle holds the route table to the path oracle
// over every endpoint pair on the paper's commodity topologies, an
// NVLink P2P server and a commodity server with an NVMe tier: each
// registered path has the oracle's resources in its order with its
// merged weights, a second Route returns the same id, a same-GPU copy
// has no path, and every pair is registered once per server.
func TestRouteTableMatchesOracle(t *testing.T) {
	for _, topo := range []*Topology{
		Commodity(RTX3090Ti, 2, 2),
		Commodity(RTX3090Ti, 1, 3),
		Commodity(RTX3090Ti, 4, 4),
		DataCenter(V100, 4, 300*GB),
		Commodity(RTX3090Ti, 2, 2).WithSSD(CommoditySSDBW, CommoditySSDBytes),
	} {
		srv, err := Build(topo)
		if err != nil {
			t.Fatal(err)
		}
		es := endpoints(srv)
		ids := map[sim.PathID]bool{}
		for pass := 0; pass < 2; pass++ {
			for _, src := range es {
				for _, dst := range es {
					id := srv.Route(src, dst)
					want := mergeHops(oracleHops(srv, src, dst))
					if got := srv.Sim.PathElems(id); !slices.Equal(got, want) {
						t.Fatalf("%s: route %v -> %v = %v, want %v", topo.Name, src, dst, got, want)
					}
					if (id == sim.NoPath) != (want == nil) {
						t.Fatalf("%s: route %v -> %v has id %d for %d hops", topo.Name, src, dst, id, len(want))
					}
					if id == sim.NoPath {
						continue
					}
					if pass == 0 && ids[id] {
						t.Fatalf("%s: route %v -> %v shares id %d with another pair", topo.Name, src, dst, id)
					}
					if pass == 1 && !ids[id] {
						t.Fatalf("%s: second route %v -> %v returned new id %d", topo.Name, src, dst, id)
					}
					ids[id] = true
				}
			}
		}
		// Paths are numbered in registration order, so the next one
		// counts every registration the two passes made.
		if next := srv.Sim.NewPath(srv.DRAMBus); int(next) != len(ids)+1 {
			t.Errorf("%s: %d pairs with a path made %d registrations", topo.Name, len(ids), next-1)
		}
		if err := srv.RouteErr(); err != nil {
			t.Errorf("%s: valid routes recorded %v", topo.Name, err)
		}
	}
}

// TestRouteRejectsForeignEndpoints holds Route to its two refusals: a GPU
// outside the topology and the SSD of a topology without an NVMe tier
// record RouteErr and yield no path, registering nothing, and an
// out-of-range GPU never reads the table slot of the DRAM or SSD
// endpoint its id would alias.
func TestRouteRejectsForeignEndpoints(t *testing.T) {
	srv, err := Build(Commodity(RTX3090Ti, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	host := srv.Route(DRAMEnd, GPUEnd(0))
	for _, c := range []struct {
		src, dst Endpoint
		reason   string
	}{
		{GPUEnd(4), GPUEnd(0), "outside"}, // GPU 4 would alias DRAM's slot
		{GPUEnd(0), GPUEnd(5), "outside"}, // GPU 5 would alias the SSD's slot
		{GPUEnd(-3), DRAMEnd, "outside"},
		{DRAMEnd, GPUEnd(1 << 20), "outside"},
		{GPUEnd(0), SSDEnd, "SSD"},
		{SSDEnd, DRAMEnd, "SSD"},
	} {
		srv.routeErr = nil
		if id := srv.Route(c.src, c.dst); id != sim.NoPath {
			t.Errorf("route %v -> %v returned path %d: %v", c.src, c.dst, id, srv.Sim.PathElems(id))
		}
		if err := srv.RouteErr(); err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("route %v -> %v: RouteErr = %v, want one naming %q", c.src, c.dst, err, c.reason)
		}
	}
	if next := srv.Sim.NewPath(srv.DRAMBus); next != host+1 {
		t.Errorf("refused routes registered %d paths", next-host-1)
	}
}
