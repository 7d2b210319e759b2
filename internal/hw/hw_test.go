package hw

import (
	"math"
	"strings"
	"testing"

	"mobius/internal/sim"
)

func TestCommodityTopologies(t *testing.T) {
	cases := []struct {
		groups []int
		name   string
		nGPU   int
		nRC    int
	}{
		{[]int{4}, "Topo 4", 4, 1},
		{[]int{2, 2}, "Topo 2+2", 4, 2},
		{[]int{1, 3}, "Topo 1+3", 4, 2},
		{[]int{4, 4}, "Topo 4+4", 8, 2},
	}
	for _, c := range cases {
		topo := Commodity(RTX3090Ti, c.groups...)
		if topo.Name != c.name {
			t.Errorf("name: got %q want %q", topo.Name, c.name)
		}
		if topo.NumGPUs() != c.nGPU {
			t.Errorf("%s: got %d GPUs want %d", c.name, topo.NumGPUs(), c.nGPU)
		}
		if len(topo.RootComplexBW) != c.nRC {
			t.Errorf("%s: got %d RCs want %d", c.name, len(topo.RootComplexBW), c.nRC)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if topo.HasP2P() {
			t.Errorf("%s: commodity topology must not support P2P", c.name)
		}
	}
}

func TestGroupSizeAndSharedRC(t *testing.T) {
	topo := Commodity(RTX3090Ti, 1, 3)
	if got := topo.GroupSize(0); got != 1 {
		t.Errorf("GroupSize(0)=%d want 1", got)
	}
	if got := topo.GroupSize(2); got != 3 {
		t.Errorf("GroupSize(2)=%d want 3", got)
	}
	if topo.SameRootComplex(0, 1) {
		t.Error("GPU 0 and 1 must be under different RCs in Topo 1+3")
	}
	if !topo.SameRootComplex(1, 3) {
		t.Error("GPU 1 and 3 must share an RC in Topo 1+3")
	}
}

func TestDataCenterTopology(t *testing.T) {
	topo := DataCenter(V100, 4, 300*GB)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if !topo.HasP2P() {
		t.Error("data center topology must support P2P")
	}
	if topo.NumGPUs() != 4 {
		t.Errorf("got %d GPUs want 4", topo.NumGPUs())
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	bad := &Topology{Name: "empty", DRAMBW: 1, DRAMBytes: 1}
	if err := bad.Validate(); err == nil {
		t.Error("empty topology must fail validation")
	}
	bad2 := Commodity(RTX3090Ti, 2)
	bad2.GPUs[1].RootComplex = 9
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range root complex must fail validation")
	}
	bad3 := Commodity(RTX3090Ti, 2)
	bad3.DRAMBW = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero DRAM bandwidth must fail validation")
	}
}

func TestBuildCreatesEntities(t *testing.T) {
	topo := Commodity(RTX3090Ti, 2, 2)
	srv, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.ComputeEngines) != 4 || len(srv.UploadEngines) != 4 || len(srv.DownloadEngine) != 4 {
		t.Fatal("expected one engine triple per GPU")
	}
	if len(srv.GPUMems) != 4 {
		t.Fatal("expected one memory pool per GPU")
	}
	if srv.GPUMems[0].Capacity() != RTX3090Ti.MemBytes {
		t.Errorf("GPU mem capacity: got %g", srv.GPUMems[0].Capacity())
	}
	if len(srv.RootComplexes) != 2 {
		t.Fatal("expected two root complex resources")
	}
	if srv.NVLinks != nil {
		t.Error("commodity server must not have NVLink resources")
	}
}

func TestRouteGPUToDRAM(t *testing.T) {
	srv, err := Build(Commodity(RTX3090Ti, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := srv.Sim.PathElems(srv.Route(GPUEnd(0), DRAMEnd))
	if len(p) != 3 {
		t.Fatalf("GPU->DRAM path should have 3 hops, got %d", len(p))
	}
	// Symmetric.
	p2 := srv.Sim.PathElems(srv.Route(DRAMEnd, GPUEnd(0)))
	if len(p2) != 3 {
		t.Fatalf("DRAM->GPU path should have 3 hops, got %d", len(p2))
	}
}

func TestRouteStagedCrossRC(t *testing.T) {
	srv, err := Build(Commodity(RTX3090Ti, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// GPU0 (rc0) -> GPU2 (rc1): both RCs at weight 1.
	p := srv.Sim.PathElems(srv.Route(GPUEnd(0), GPUEnd(2)))
	if len(p) != 5 {
		t.Fatalf("cross-RC staged path should have 5 hops, got %d", len(p))
	}
	for _, pe := range p {
		if pe.Weight != 1 {
			t.Errorf("cross-RC hop %s weight %g, want 1", pe.Res.Name(), pe.Weight)
		}
	}
}

func TestRouteStagedSameRCDoubleWeight(t *testing.T) {
	srv, err := Build(Commodity(RTX3090Ti, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// GPU0 -> GPU1 share rc0: the shared RC must carry weight 2.
	p := srv.Sim.PathElems(srv.Route(GPUEnd(0), GPUEnd(1)))
	foundDouble := false
	for _, pe := range p {
		if pe.Res == srv.RootComplexes[0] && pe.Weight == 2 {
			foundDouble = true
		}
	}
	if !foundDouble {
		t.Fatal("same-RC staged route must cross the shared root complex twice")
	}
}

func TestRouteP2PUsesNVLink(t *testing.T) {
	srv, err := Build(DataCenter(V100, 4, 300*GB))
	if err != nil {
		t.Fatal(err)
	}
	p := srv.Sim.PathElems(srv.Route(GPUEnd(0), GPUEnd(1)))
	if len(p) != 2 {
		t.Fatalf("P2P path should have 2 NVLink hops, got %d", len(p))
	}
	for _, pe := range p {
		if pe.Res.Capacity() != 300*GB {
			t.Errorf("P2P hop capacity %g, want NVLink", pe.Res.Capacity())
		}
	}
	// DRAM traffic still crosses PCIe.
	pd := srv.Sim.PathElems(srv.Route(GPUEnd(0), DRAMEnd))
	if len(pd) != 3 {
		t.Fatalf("DC GPU->DRAM path should have 3 PCIe hops, got %d", len(pd))
	}
}

func TestRouteSameGPUFree(t *testing.T) {
	srv, err := Build(Commodity(RTX3090Ti, 4))
	if err != nil {
		t.Fatal(err)
	}
	if p := srv.Sim.PathElems(srv.Route(GPUEnd(2), GPUEnd(2))); p != nil {
		t.Fatalf("same-GPU route must be free, got %d hops", len(p))
	}
}

func TestStagedTransferBandwidthEndToEnd(t *testing.T) {
	// Two GPUs under one RC: a staged GPU0->GPU1 copy of 13.1 GB should
	// take 2 seconds (13.1 GB/s RC crossed twice) plus the topology's
	// per-transfer setup latency.
	topo := Commodity(RTX3090Ti, 2)
	srv, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	s := srv.Sim
	tr := s.Transfer(s.Name("staged"), nil, srv.Route(GPUEnd(0), GPUEnd(1)), 13.1*GB, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + topo.TransferLatency
	if math.Abs(end-want) > 1e-6 {
		t.Errorf("staged same-RC transfer: got %gs want %gs", end, want)
	}
	_ = tr
}

func TestEndpointAccessors(t *testing.T) {
	if !DRAMEnd.IsDRAM() {
		t.Error("DRAMEnd must be DRAM")
	}
	g := GPUEnd(3)
	if g.IsDRAM() || g.GPU() != 3 {
		t.Error("GPUEnd(3) accessor mismatch")
	}
	if g.String() != "gpu3" || DRAMEnd.String() != "dram" {
		t.Error("endpoint String mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("DRAMEnd.GPU() must panic")
		}
	}()
	_ = DRAMEnd.GPU()
}

func TestEffectiveThroughput(t *testing.T) {
	if RTX3090Ti.Effective() <= 0 {
		t.Fatal("effective throughput must be positive")
	}
	// The paper's pitch: a 3090-Ti has ~2x the FP32 throughput of an A100
	// at ~1/7 the price. Here we check the spec constants keep the price
	// ratio that motivates the paper.
	if RTX3090Ti.PriceUSD*6 > A100.PriceUSD {
		t.Errorf("3090-Ti must be several times cheaper: %v vs %v", RTX3090Ti.PriceUSD, A100.PriceUSD)
	}
}

func TestTopologyString(t *testing.T) {
	s := Commodity(RTX3090Ti, 2, 2).String()
	if s == "" {
		t.Fatal("empty String()")
	}
	dc := DataCenter(V100, 4, 300*GB).String()
	if dc == "" {
		t.Fatal("empty DC String()")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		gpus int
		rcs  int
		p2p  bool
		err  bool
	}{
		{"4", 4, 1, false, false},
		{"2+2", 4, 2, false, false},
		{"1+3", 4, 2, false, false},
		{"4+4", 8, 2, false, false},
		{"dc", 4, 4, true, false},
		{"dc8", 8, 8, true, false},
		{"", 0, 0, false, true},
		{"x+2", 0, 0, false, true},
		{"0+2", 0, 0, false, true},
		{"dcx", 0, 0, false, true},
	}
	for _, c := range cases {
		topo, err := ParseSpec(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("%q: expected error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if topo.NumGPUs() != c.gpus || len(topo.RootComplexBW) != c.rcs || topo.HasP2P() != c.p2p {
			t.Errorf("%q: got %d GPUs %d RCs p2p=%v", c.spec, topo.NumGPUs(), len(topo.RootComplexBW), topo.HasP2P())
		}
	}
}

func TestSSDRouting(t *testing.T) {
	topo := Commodity(RTX3090Ti, 2, 2).WithSSD(CommoditySSDBW, CommoditySSDBytes)
	if !topo.HasSSD() {
		t.Fatal("SSD not attached")
	}
	srv, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	if srv.SSDBus == nil {
		t.Fatal("no SSD resource built")
	}
	// GPU <-> SSD crosses link, RC, DRAM bounce and SSD: 4 hops.
	if p := srv.Sim.PathElems(srv.Route(GPUEnd(0), SSDEnd)); len(p) != 4 {
		t.Fatalf("GPU->SSD hops: %d", len(p))
	}
	// DRAM <-> SSD: 2 hops.
	if p := srv.Sim.PathElems(srv.Route(SSDEnd, DRAMEnd)); len(p) != 2 {
		t.Fatalf("SSD->DRAM hops: %d", len(p))
	}
	// SSD is the narrowest hop: a 3.5 GB transfer takes ~1s + latency.
	tr := srv.Sim.Transfer(srv.Sim.Name("up"), nil, srv.Route(SSDEnd, GPUEnd(1)), CommoditySSDBW, 0)
	end, err := srv.Sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + topo.TransferLatency
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("SSD-bound transfer: got %g want %g", end, want)
	}
	_ = tr
}

func TestRouteWithoutSSDRecordsError(t *testing.T) {
	srv, _ := Build(Commodity(RTX3090Ti, 2))
	if err := srv.RouteErr(); err != nil {
		t.Fatalf("fresh server has route error: %v", err)
	}
	if id := srv.Route(GPUEnd(0), SSDEnd); id != sim.NoPath {
		t.Fatalf("invalid route returned path %d: %v", id, srv.Sim.PathElems(id))
	}
	err := srv.RouteErr()
	if err == nil {
		t.Fatal("routing to a missing SSD must record an error")
	}
	if !strings.Contains(err.Error(), "SSD") {
		t.Fatalf("route error should name the missing tier: %v", err)
	}
	// The first error sticks even after further bad routes.
	srv.Route(SSDEnd, DRAMEnd)
	if srv.RouteErr() != err {
		t.Fatal("RouteErr must report the first failure")
	}
}

func TestResourceAndPoolLookup(t *testing.T) {
	srv, _ := Build(Commodity(RTX3090Ti, 2, 2))
	for _, name := range []string{"rc0", "rc1", "gpu0.link", "gpu3.link", "drambus"} {
		if srv.ResourceByName(name) == nil {
			t.Fatalf("ResourceByName(%q) = nil", name)
		}
	}
	if srv.ResourceByName("gpu9.link") != nil || srv.ResourceByName("ssd") != nil {
		t.Fatal("lookup of absent resources must return nil")
	}
	names := srv.ResourceNames()
	if len(names) == 0 {
		t.Fatal("ResourceNames empty")
	}
}

func TestEndpointKindsDistinct(t *testing.T) {
	if SSDEnd.IsDRAM() || DRAMEnd.IsSSD() {
		t.Fatal("endpoint kind confusion")
	}
	if SSDEnd.String() != "ssd" {
		t.Fatalf("ssd endpoint string %q", SSDEnd.String())
	}
}

func TestExtraGPUPresets(t *testing.T) {
	for _, spec := range []GPUSpec{RTX4090, A6000} {
		if spec.P2P {
			t.Errorf("%s: commodity preset must not support P2P", spec.Name)
		}
		topo := Commodity(spec, 2, 2)
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if A6000.MemBytes <= RTX3090Ti.MemBytes {
		t.Error("A6000 must have more memory than a 3090-Ti")
	}
}

func TestParseJSON(t *testing.T) {
	data := []byte(`{
		"name": "my box",
		"gpu": {"name": "RTX 4090", "mem_gb": 24, "fp16_tflops": 330, "efficiency": 0.05, "link_gbps": 32},
		"groups": [2, 2],
		"root_complex_gbps": 26,
		"dram_gb": 512,
		"transfer_latency_ms": 3
	}`)
	topo, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "my box" || topo.NumGPUs() != 4 {
		t.Fatalf("topology: %+v", topo)
	}
	if topo.RootComplexBW[0] != 26*GBps || topo.DRAMBytes != 512*GB {
		t.Fatalf("overrides not applied: %+v", topo)
	}
	if topo.TransferLatency != 0.003 {
		t.Fatalf("latency %g", topo.TransferLatency)
	}
	if topo.GPUs[0].Spec.Name != "RTX 4090" {
		t.Fatalf("gpu spec %+v", topo.GPUs[0].Spec)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseJSONDefaultsAndErrors(t *testing.T) {
	topo, err := ParseJSON([]byte(`{"groups": [2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.GPUs[0].Spec.Name != RTX3090Ti.Name || topo.GPUMem(0) != 24*GB {
		t.Fatalf("defaults: %+v", topo.GPUs[0].Spec)
	}
	for _, bad := range []string{`{`, `{}`, `{"groups": [0]}`, `{"groups": [999]}`,
		`{"groups": [9223372036854775807, 9223372036854775807, 2]}`} {
		if _, err := ParseJSON([]byte(bad)); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
	// SSD attachment.
	withSSD, err := ParseJSON([]byte(`{"groups": [2], "ssd_gbps": 3.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if !withSSD.HasSSD() {
		t.Fatal("SSD not attached")
	}
}

// TestParseJSONRejectsMalformedFields holds ParseJSON to an error naming
// the field for a negative value, which used to take the default, an
// efficiency above 100% of peak, a bandwidth that overflows to +Inf
// bytes/s, and a bandwidth under 1 byte/s, over which a transfer never
// finished: its completion time overflowed and the run deadlocked.
func TestParseJSONRejectsMalformedFields(t *testing.T) {
	for _, c := range []struct{ json, field string }{
		{`{"groups": [2, 2], "root_complex_gbps": -13.1}`, "root_complex_gbps"},
		{`{"groups": [2, 2], "transfer_latency_ms": -5}`, "transfer_latency_ms"},
		{`{"groups": [2, 2], "nvlink_gbps": -300}`, "nvlink_gbps"},
		{`{"groups": [2, 2], "ssd_gbps": -3.5}`, "ssd_gbps"},
		{`{"groups": [2, 2], "dram_gb": -512}`, "dram_gb"},
		{`{"groups": [2], "gpu": {"mem_gb": -24}}`, "gpu.mem_gb"},
		{`{"groups": [2], "gpu": {"efficiency": 7}}`, "gpu.efficiency"},
		{`{"groups": [2], "gpu": {"efficiency": -0.05}}`, "gpu.efficiency"},
		{`{"groups": [2, 2], "root_complex_gbps": 1e300}`, "root_complex_gbps"},
		{`{"groups": [2], "gpu": {"fp16_tflops": 1e300}}`, "gpu.fp16_tflops"},
		{`{"groups": [2], "ssd_gbps": 3.5, "ssd_gb": 1e300}`, "ssd_gb"},
		{`{"groups": [2, 2], "root_complex_gbps": 1e-320}`, "root_complex_gbps"},
		{`{"groups": [2], "gpu": {"link_gbps": 1e-10}}`, "gpu.link_gbps"},
		{`{"groups": [2, 2], "nvlink_gbps": 5e-324}`, "nvlink_gbps"},
		{`{"groups": [2], "ssd_gbps": 1e-12}`, "ssd_gbps"},
	} {
		topo, err := ParseJSON([]byte(c.json))
		if err == nil {
			t.Errorf("%s: accepted as %+v", c.json, topo)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.json, err, c.field)
		}
	}
	// A full-efficiency GPU is the top of the accepted range.
	if _, err := ParseJSON([]byte(`{"groups": [2], "gpu": {"efficiency": 1}}`)); err != nil {
		t.Errorf("efficiency 1: %v", err)
	}
}
