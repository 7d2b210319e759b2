package hw

import (
	"errors"
	"testing"

	"mobius/internal/sim"
)

// FuzzParseSpec ensures the topology-spec parser never panics and that
// every accepted spec yields a valid topology.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{"4", "2+2", "1+3", "4+4", "dc", "dc8", "", "++", "-1", "dc0", "2+0", "9999999999"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if topo.NumGPUs() <= 0 {
			t.Fatalf("accepted %q but produced %d GPUs", spec, topo.NumGPUs())
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted %q but invalid: %v", spec, err)
		}
	})
}

// FuzzTopologyJSON holds every server ParseJSON accepts to the fact the
// simulator's single water-fill rests on: the topology builds, Route
// resolves every endpoint pair without RouteErr, and every path except a
// GPU pair's on a P2P NVLink server crosses the DRAM bus, so a server's
// active flows share one resource. One 1 GB transfer per pair, all
// ready at once, must then finish or stop with a *sim.StallError: a
// setup latency near 1e17 s leaves the clock too coarse to finish them.
func FuzzTopologyJSON(f *testing.F) {
	for _, seed := range []string{
		`{"groups":[2,2],"transfer_latency_ms":1e20}`,
		`{"groups":[2,2]}`,
		`{"groups":[1,3],"root_complex_gbps":26.2}`,
		`{"groups":[4,4],"ssd_gbps":3.5,"ssd_gb":2000}`,
		`{"groups":[4],"nvlink_gbps":300,"gpu":{"p2p":true}}`,
		`{"groups":[2,2],"nvlink_gbps":50}`,
		`{"groups":[1,1,1],"gpu":{"link_gbps":0.001},"transfer_latency_ms":5}`,
		`{"groups":[2,2],"root_complex_gbps":1e-320}`,
		`{"groups":[32,32]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ParseJSON(data)
		if err != nil {
			return
		}
		srv, err := Build(topo)
		if err != nil {
			t.Fatalf("ParseJSON accepted %s but Build failed: %v", data, err)
		}
		ends := []Endpoint{DRAMEnd}
		for g := range topo.NumGPUs() {
			ends = append(ends, GPUEnd(g))
		}
		if topo.HasSSD() {
			ends = append(ends, SSDEnd)
		}
		s := srv.Sim
		name := s.Name("x")
		for _, src := range ends {
			for _, dst := range ends {
				id := srv.Route(src, dst)
				if err := srv.RouteErr(); err != nil {
					t.Fatalf("%s: route %v -> %v: %v", data, src, dst, err)
				}
				gpus := !src.IsDRAM() && !src.IsSSD() && !dst.IsDRAM() && !dst.IsSSD()
				elems := s.PathElems(id)
				if len(elems) == 0 {
					if !gpus || src != dst {
						t.Fatalf("%s: route %v -> %v is empty", data, src, dst)
					}
					continue
				}
				if !(gpus && topo.HasP2P()) && !crosses(elems, srv.DRAMBus) {
					t.Fatalf("%s: route %v -> %v does not cross the DRAM bus", data, src, dst)
				}
				s.Transfer(name, nil, id, GB, 0)
			}
		}
		var stall *sim.StallError
		if _, err := s.Run(); err != nil && !errors.As(err, &stall) {
			t.Fatalf("%s: %v", data, err)
		}
	})
}

func crosses(path []sim.PathElem, r *sim.Resource) bool {
	for _, pe := range path {
		if pe.Res == r {
			return true
		}
	}
	return false
}
