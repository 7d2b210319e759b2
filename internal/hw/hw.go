// Package hw describes GPU server hardware: GPU specifications, PCIe
// topology (root complexes, per-GPU links), NVLink fabrics, and DRAM. It
// builds the matching internal/sim resources and routes transfers between
// endpoints, staging GPU-to-GPU copies through DRAM when GPUDirect P2P is
// unavailable — the defining communication property of commodity GPU
// servers in the Mobius paper (§2.2).
package hw

import (
	"fmt"
	"strings"

	"mobius/internal/sim"
)

// Byte-size and bandwidth units.
const (
	KB = 1e3
	MB = 1e6
	GB = 1e9

	GBps = 1e9 // bytes per second
)

// GPUSpec describes one GPU model (Table 1 of the paper).
type GPUSpec struct {
	Name string
	// MemBytes is the device memory capacity.
	MemBytes float64
	// FP16TFLOPS is the peak mixed-precision tensor throughput, used by
	// the compute cost model together with Efficiency.
	FP16TFLOPS float64
	// Efficiency is the achievable fraction of peak FLOPs for this
	// training stack (model FLOPs utilization). The presets are
	// calibrated against the paper's absolute per-step times; see the
	// comments on RTX3090Ti and V100.
	Efficiency float64
	// LinkBW is the GPU's own PCIe (or NVLink ingress) bandwidth in B/s.
	LinkBW float64
	// PriceUSD is the unit price, for the Figure 15b cost analysis.
	PriceUSD float64
	// P2P reports whether GPUDirect peer-to-peer is supported.
	P2P bool
}

// Effective returns the usable FLOP/s for the compute cost model.
func (g GPUSpec) Effective() float64 { return g.FP16TFLOPS * 1e12 * g.Efficiency }

// Reference GPU specs from Table 1 and the evaluation setup (§4).
var (
	// RTX3090Ti is the commodity GPU of the paper's main testbed:
	// 24 GB memory, no GPUDirect P2P, PCIe 3.0 connectivity. Efficiency
	// is calibrated to the paper's absolute per-step times: small-batch
	// (mbs 1-2, seq 512) eager-mode training with per-stage swap
	// synchronization sustains only a few percent of peak tensor FLOPs.
	RTX3090Ti = GPUSpec{
		Name:       "RTX 3090-Ti",
		MemBytes:   24 * GB,
		FP16TFLOPS: 160,
		Efficiency: 0.05,
		LinkBW:     16 * GBps,
		PriceUSD:   2000,
		P2P:        false,
	}
	// V100 is the data-center GPU of the EC2 P3.8xlarge setup: 16 GB
	// memory, NVLink, GPUDirect P2P. Data-center stacks sustain roughly
	// twice the commodity utilization (faster interconnect removes sync
	// stalls), hence the higher calibrated efficiency.
	V100 = GPUSpec{
		Name:       "V100",
		MemBytes:   16 * GB,
		FP16TFLOPS: 112,
		Efficiency: 0.10,
		LinkBW:     16 * GBps,
		PriceUSD:   10000,
		P2P:        true,
	}
	// A100 appears in Table 1 for the price/performance comparison.
	A100 = GPUSpec{
		Name:       "A100",
		MemBytes:   40 * GB,
		FP16TFLOPS: 312,
		Efficiency: 0.10,
		LinkBW:     32 * GBps,
		PriceUSD:   14000,
		P2P:        true,
	}
	// RTX4090 is a newer commodity option for what-if studies: more
	// compute and PCIe 4.0, still no P2P.
	RTX4090 = GPUSpec{
		Name:       "RTX 4090",
		MemBytes:   24 * GB,
		FP16TFLOPS: 330,
		Efficiency: 0.05,
		LinkBW:     32 * GBps,
		PriceUSD:   1600,
		P2P:        false,
	}
	// A6000 is a workstation card: large memory, no NVLink fabric in
	// commodity chassis.
	A6000 = GPUSpec{
		Name:       "RTX A6000",
		MemBytes:   48 * GB,
		FP16TFLOPS: 155,
		Efficiency: 0.05,
		LinkBW:     32 * GBps,
		PriceUSD:   4500,
		P2P:        false,
	}
)

// GPU is one device instance within a topology.
type GPU struct {
	ID   int
	Spec GPUSpec
	// RootComplex is the index of the CPU root complex this GPU's PCIe
	// link ultimately reaches.
	RootComplex int
}

// Topology is a single server: GPUs grouped under CPU root complexes,
// DRAM, and optionally an all-to-all NVLink fabric.
type Topology struct {
	Name string
	GPUs []GPU
	// RootComplexBW is the usable bandwidth of each CPU root complex in
	// B/s. The paper measures 13.1 GB/s as the maximum on its testbed.
	RootComplexBW []float64
	// DRAMBW is the host memory bandwidth available to DMA in B/s; it is
	// rarely the bottleneck.
	DRAMBW float64
	// DRAMBytes is the host DRAM capacity (1.5 TB on the testbed).
	DRAMBytes float64
	// NVLinkBW is the per-GPU NVLink bandwidth in B/s; zero when the
	// server has no NVLink fabric.
	NVLinkBW float64
	// TransferLatency is the fixed per-transfer setup overhead in
	// seconds (DMA descriptor setup, host staging synchronization,
	// framework launch): commodity no-P2P staging pays more than a
	// data-center direct path.
	TransferLatency float64
	// SSDBW and SSDBytes describe an optional NVMe tier used by the
	// ZeRO-Infinity related-work experiments; zero means no SSD.
	SSDBW    float64
	SSDBytes float64
}

// NumGPUs returns the GPU count.
func (t *Topology) NumGPUs() int { return len(t.GPUs) }

// GPUMem returns the device memory capacity of GPU id.
func (t *Topology) GPUMem(id int) float64 { return t.GPUs[id].Spec.MemBytes }

// SameRootComplex reports whether GPUs a and b share a CPU root complex.
func (t *Topology) SameRootComplex(a, b int) bool {
	return t.GPUs[a].RootComplex == t.GPUs[b].RootComplex
}

// GroupSize returns the number of GPUs under the root complex of GPU id.
func (t *Topology) GroupSize(id int) int {
	rc := t.GPUs[id].RootComplex
	n := 0
	for _, g := range t.GPUs {
		if g.RootComplex == rc {
			n++
		}
	}
	return n
}

// HasP2P reports whether direct GPU-to-GPU transfers are possible (all
// GPUs support GPUDirect P2P and an NVLink fabric exists).
func (t *Topology) HasP2P() bool {
	if t.NVLinkBW <= 0 {
		return false
	}
	for _, g := range t.GPUs {
		if !g.Spec.P2P {
			return false
		}
	}
	return true
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	if len(t.GPUs) == 0 {
		return fmt.Errorf("hw: topology %q has no GPUs", t.Name)
	}
	for _, g := range t.GPUs {
		if g.RootComplex < 0 || g.RootComplex >= len(t.RootComplexBW) {
			return fmt.Errorf("hw: GPU %d references root complex %d of %d", g.ID, g.RootComplex, len(t.RootComplexBW))
		}
		if g.Spec.MemBytes <= 0 || g.Spec.Effective() <= 0 || g.Spec.LinkBW <= 0 {
			return fmt.Errorf("hw: GPU %d has a non-positive spec field", g.ID)
		}
	}
	for i, bw := range t.RootComplexBW {
		if bw <= 0 {
			return fmt.Errorf("hw: root complex %d has bandwidth %g", i, bw)
		}
	}
	if t.DRAMBW <= 0 || t.DRAMBytes <= 0 {
		return fmt.Errorf("hw: DRAM must have positive bandwidth and capacity")
	}
	return nil
}

func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d GPU(s)", t.Name, len(t.GPUs))
	groups := map[int]int{}
	for _, g := range t.GPUs {
		groups[g.RootComplex]++
	}
	fmt.Fprintf(&b, ", %d root complex(es) [", len(t.RootComplexBW))
	for i := range t.RootComplexBW {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", groups[i])
	}
	b.WriteByte(']')
	if t.NVLinkBW > 0 {
		fmt.Fprintf(&b, ", NVLink %.0f GB/s", t.NVLinkBW/GB)
	}
	return b.String()
}

// Commodity builds a commodity GPU server: groups[i] GPUs under root
// complex i, all using spec, no NVLink and no P2P routing. The paper's
// topologies are Commodity(spec, 4) ("Topo 4"), Commodity(spec, 2, 2)
// ("Topo 2+2"), Commodity(spec, 1, 3) ("Topo 1+3") and
// Commodity(spec, 4, 4) (the 8-GPU setup of §4.4).
func Commodity(spec GPUSpec, groups ...int) *Topology {
	t := &Topology{
		Name:            topoName(groups),
		DRAMBW:          50 * GBps,
		DRAMBytes:       1.5e12,
		TransferLatency: 5e-3,
	}
	id := 0
	for rc, n := range groups {
		t.RootComplexBW = append(t.RootComplexBW, 13.1*GBps)
		for i := 0; i < n; i++ {
			t.GPUs = append(t.GPUs, GPU{ID: id, Spec: spec, RootComplex: rc})
			id++
		}
	}
	return t
}

// DataCenter builds an NVLink-connected data-center server in the style
// of an EC2 P3.8xlarge: n GPUs of the given spec, each with its own PCIe
// root port (data-center boards do not funnel all GPUs through one root
// complex), plus GPUDirect P2P over NVLink at nvlinkBW per GPU.
func DataCenter(spec GPUSpec, n int, nvlinkBW float64) *Topology {
	t := &Topology{
		Name:            fmt.Sprintf("DC %dx%s", n, spec.Name),
		DRAMBW:          50 * GBps,
		DRAMBytes:       768 * GB,
		NVLinkBW:        nvlinkBW,
		TransferLatency: 1e-3,
	}
	for i := 0; i < n; i++ {
		t.RootComplexBW = append(t.RootComplexBW, 13.1*GBps)
		t.GPUs = append(t.GPUs, GPU{ID: i, Spec: spec, RootComplex: i})
	}
	return t
}

func topoName(groups []int) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = fmt.Sprintf("%d", g)
	}
	return "Topo " + strings.Join(parts, "+")
}

// Server is a Topology instantiated on a simulator: resources, engines
// and memory pools ready for schedulers to target.
type Server struct {
	Topo *Topology
	Sim  *sim.Sim

	// Per-GPU entities.
	ComputeEngines []*sim.Engine // one compute engine per GPU
	UploadEngines  []*sim.Engine // host-to-device DMA engine per GPU
	DownloadEngine []*sim.Engine // device-to-host DMA engine per GPU
	GPULinks       []*sim.Resource
	GPUMems        []*sim.MemPool

	// Shared entities.
	RootComplexes []*sim.Resource
	DRAMBus       *sim.Resource
	DRAM          *sim.MemPool
	NVLinks       []*sim.Resource // per-GPU NVLink port; nil without NVLink
	SSDBus        *sim.Resource   // nil without an NVMe tier

	// routes is the route table: the path id of every (src, dst)
	// endpoint pair Route has resolved, at src*(N+2)+dst over endpoint
	// slots (endpointSlot), NoPath until its first Route.
	routes []sim.PathID

	// routeErr records the first invalid routing request (e.g. an SSD
	// endpoint on a topology without an NVMe tier). Schedulers build
	// their DAG unconditionally and check RouteErr before running the
	// simulation.
	routeErr error
}

// RouteErr returns the first routing error recorded by Route, if any.
// Callers that build transfer DAGs must check it before Sim.Run: a failed
// Route returns sim.NoPath, which would otherwise simulate as an
// infinitely fast transfer.
func (srv *Server) RouteErr() error { return srv.routeErr }

func (srv *Server) noteRouteErr(err error) {
	if srv.routeErr == nil {
		srv.routeErr = err
	}
}

// ResourceByName finds a bandwidth resource by its simulator name ("rc0",
// "gpu3.link", "gpu1.nvlink", "drambus", "ssd"). It returns nil when no
// such resource exists on this server. The fault layer uses it to bind
// declarative link-fault specs to concrete resources.
func (srv *Server) ResourceByName(name string) *sim.Resource {
	for _, r := range srv.allResources() {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// ResourceNames lists the bandwidth resources on this server in a stable
// order, for error messages that must enumerate valid fault targets.
func (srv *Server) ResourceNames() []string {
	rs := srv.allResources()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name()
	}
	return names
}

func (srv *Server) allResources() []*sim.Resource {
	var rs []*sim.Resource
	rs = append(rs, srv.RootComplexes...)
	rs = append(rs, srv.GPULinks...)
	rs = append(rs, srv.NVLinks...)
	if srv.DRAMBus != nil {
		rs = append(rs, srv.DRAMBus)
	}
	if srv.SSDBus != nil {
		rs = append(rs, srv.SSDBus)
	}
	return rs
}

// Build instantiates the topology on a fresh simulator.
func Build(t *Topology) (*Server, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	s := sim.New()
	s.TransferLatency = t.TransferLatency
	n := t.NumGPUs() + 2 // GPUs, DRAM and the SSD
	srv := &Server{Topo: t, Sim: s, routes: make([]sim.PathID, n*n)}
	for i, bw := range t.RootComplexBW {
		srv.RootComplexes = append(srv.RootComplexes, s.NewResource(fmt.Sprintf("rc%d", i), bw))
	}
	srv.DRAMBus = s.NewResource("drambus", t.DRAMBW)
	srv.DRAM = s.NewMemPool("dram", t.DRAMBytes)
	if t.HasSSD() {
		srv.SSDBus = s.NewResource("ssd", t.SSDBW)
	}
	for _, g := range t.GPUs {
		srv.ComputeEngines = append(srv.ComputeEngines, s.NewEngine(fmt.Sprintf("gpu%d.compute", g.ID)))
		srv.UploadEngines = append(srv.UploadEngines, s.NewEngine(fmt.Sprintf("gpu%d.upload", g.ID)))
		srv.DownloadEngine = append(srv.DownloadEngine, s.NewEngine(fmt.Sprintf("gpu%d.download", g.ID)))
		srv.GPULinks = append(srv.GPULinks, s.NewResource(fmt.Sprintf("gpu%d.link", g.ID), g.Spec.LinkBW))
		srv.GPUMems = append(srv.GPUMems, s.NewMemPool(fmt.Sprintf("gpu%d.mem", g.ID), g.Spec.MemBytes))
		if t.NVLinkBW > 0 {
			srv.NVLinks = append(srv.NVLinks, s.NewResource(fmt.Sprintf("gpu%d.nvlink", g.ID), t.NVLinkBW))
		}
	}
	return srv, nil
}

// Endpoint identifies one side of a transfer: a GPU id or DRAM.
type Endpoint struct {
	gpu int // -1 means DRAM
}

// DRAMEnd is the host-memory endpoint.
var DRAMEnd = Endpoint{gpu: -1}

// GPUEnd returns the endpoint for GPU id.
func GPUEnd(id int) Endpoint { return Endpoint{gpu: id} }

// IsDRAM reports whether the endpoint is host memory.
func (e Endpoint) IsDRAM() bool { return e.gpu == -1 }

// GPU returns the endpoint's GPU id; it panics for DRAM.
func (e Endpoint) GPU() int {
	if e.gpu < 0 {
		panic("hw: DRAM endpoint has no GPU")
	}
	return e.gpu
}

func (e Endpoint) String() string {
	switch {
	case e.gpu == -1:
		return "dram"
	case e.gpu == -2:
		return "ssd"
	}
	return fmt.Sprintf("gpu%d", e.gpu)
}

// Route returns the id of the simulator path a transfer from src to dst
// crosses.
//
// On commodity servers (no GPUDirect P2P) every GPU-to-GPU copy is staged
// through DRAM: it crosses the source GPU link and root complex, the DRAM
// bus, then the destination root complex and GPU link. When both GPUs sit
// under the same root complex the shared element carries weight 2, which
// halves the effective bandwidth — the contention mechanism of §2.2.
//
// With P2P and NVLink, GPU-to-GPU transfers use the NVLink ports only,
// while GPU<->DRAM traffic still crosses PCIe.
//
// Each (src, dst) pair is resolved once per server: its first Route
// registers the path with the simulator, and later calls read the id
// back from the server's route table. A same-device copy is free
// (sim.NoPath). An endpoint the topology lacks (a GPU outside it, or the
// SSD without an NVMe tier) records RouteErr and yields sim.NoPath.
func (srv *Server) Route(src, dst Endpoint) sim.PathID {
	i, j := srv.endpointSlot(src), srv.endpointSlot(dst)
	switch {
	case i < 0 || j < 0:
		srv.noteRouteErr(fmt.Errorf("hw: route %v -> %v: endpoint outside topology %q", src, dst, srv.Topo.Name))
		return sim.NoPath
	case (src.IsSSD() || dst.IsSSD()) && srv.SSDBus == nil:
		srv.noteRouteErr(fmt.Errorf("hw: route %v -> %v: topology %q has no SSD tier", src, dst, srv.Topo.Name))
		return sim.NoPath
	}
	slot := &srv.routes[i*(srv.Topo.NumGPUs()+2)+j]
	if *slot == sim.NoPath {
		*slot = srv.newRoute(src, dst)
	}
	return *slot
}

// endpointSlot is e's row (or column) in the route table: GPU id, then
// DRAM, then the SSD; -1 for an endpoint outside the topology.
func (srv *Server) endpointSlot(e Endpoint) int {
	n := srv.Topo.NumGPUs()
	switch {
	case e.IsDRAM():
		return n
	case e.IsSSD():
		return n + 1
	case e.gpu < 0 || e.gpu >= n:
		return -1
	}
	return e.gpu
}

// newRoute registers the path from src to dst, both on this server.
func (srv *Server) newRoute(src, dst Endpoint) sim.PathID {
	s := srv.Sim
	if src.IsSSD() || dst.IsSSD() {
		other := src
		if other.IsSSD() {
			other = dst
		}
		if other.IsSSD() || other.IsDRAM() {
			return s.NewPath(srv.DRAMBus, srv.SSDBus)
		}
		id := other.GPU()
		rc := srv.RootComplexes[srv.Topo.GPUs[id].RootComplex]
		return s.NewPath(srv.GPULinks[id], rc, srv.DRAMBus, srv.SSDBus)
	}
	switch {
	case src.IsDRAM() && dst.IsDRAM():
		return s.NewPath(srv.DRAMBus)
	case src.IsDRAM() != dst.IsDRAM():
		g := src
		if g.IsDRAM() {
			g = dst
		}
		id := g.GPU()
		rc := srv.RootComplexes[srv.Topo.GPUs[id].RootComplex]
		return s.NewPath(srv.GPULinks[id], rc, srv.DRAMBus)
	default:
		a, b := src.GPU(), dst.GPU()
		if a == b {
			return sim.NoPath // same-device copy: free
		}
		if srv.Topo.HasP2P() {
			return s.NewPath(srv.NVLinks[a], srv.NVLinks[b])
		}
		rcA := srv.RootComplexes[srv.Topo.GPUs[a].RootComplex]
		rcB := srv.RootComplexes[srv.Topo.GPUs[b].RootComplex]
		return s.NewPath(srv.GPULinks[a], rcA, srv.DRAMBus, rcB, srv.GPULinks[b])
	}
}
