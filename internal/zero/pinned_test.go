package zero

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/trace"
)

// cellPrint is the fingerprint of one baseline step: the step-time and
// traffic bits, the number of trace records, and an FNV-1a hash over
// every flow and compute record's tag, start, end and bytes. err holds
// the error text when the builder refused the topology.
type cellPrint struct {
	label         string
	step, traffic uint64
	records       int
	hash          uint64
	err           string
}

// builderGrid runs every Table 3 model on six servers, each without and
// with the commodity NVMe tier, through the three baseline builders, and
// fingerprints each step in a fixed order.
func builderGrid(t *testing.T) []cellPrint {
	t.Helper()
	topos := []*hw.Topology{
		hw.Commodity(hw.RTX3090Ti, 2, 2),
		hw.Commodity(hw.RTX3090Ti, 1, 3),
		hw.Commodity(hw.RTX3090Ti, 4),
		hw.Commodity(hw.RTX3090Ti, 4, 4),
		hw.Commodity(hw.RTX3090Ti, 2, 2, 2, 2),
		hw.DataCenter(hw.V100, 4, 300*hw.GB),
	}
	builders := []struct {
		name string
		run  func(*hw.Topology, Config) (*pipeline.Result, error)
	}{{"run", Run}, {"nvme", RunInfinityNVMe}, {"offload", RunOffload}}
	profs := map[string]*profile.Profile{}
	var cells []cellPrint
	for _, m := range model.Table3() {
		for _, base := range topos {
			spec := base.GPUs[0].Spec
			p := profs[m.Name+spec.Name]
			if p == nil {
				var err error
				if p, err = profile.Run(m, spec, profile.Options{}); err != nil {
					t.Fatal(err)
				}
				profs[m.Name+spec.Name] = p
			}
			for _, ssd := range []bool{false, true} {
				topo, tier := base, "dram"
				if ssd {
					clone := *base
					topo, tier = (&clone).WithSSD(hw.CommoditySSDBW, hw.CommoditySSDBytes), "ssd"
				}
				for _, b := range builders {
					c := cellPrint{label: m.Name + "/" + base.Name + "/" + tier + "/" + b.name}
					res, err := b.run(topo, Config{Profile: p})
					if err != nil {
						c.err = err.Error()
					} else {
						c.step = math.Float64bits(res.StepTime)
						c.traffic = math.Float64bits(res.TotalTraffic())
						c.records, c.hash = hashRecords(res.Recorder)
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// hashRecords counts a recorder's records and hashes them in order.
func hashRecords(r *trace.Recorder) (int, uint64) {
	h := fnv.New64a()
	var buf []byte
	tag := func(t trace.Tag) {
		for _, v := range []int{int(t.Kind), t.GPU, t.PeerGPU, t.Stage, t.Microbatch} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
		}
	}
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for _, f := range r.Flows {
		buf = buf[:0]
		tag(f.Tag)
		f64(f.Start)
		f64(f.End)
		f64(f.Bytes)
		h.Write(buf)
	}
	for _, c := range r.Computes {
		buf = buf[:0]
		tag(c.Tag)
		f64(c.Start)
		f64(c.End)
		h.Write(buf)
	}
	return len(r.Flows) + len(r.Computes), h.Sum64()
}

// TestZeROBuildersPinned holds Run, RunInfinityNVMe and RunOffload to
// the schedules they produced before the two ZeRO-3 builders were merged
// into one: every step-time and traffic bit, record count and record
// hash across the 144-cell grid, plus each refusal's error text.
func TestZeROBuildersPinned(t *testing.T) {
	got := builderGrid(t)
	if len(got) != len(pinnedCells) {
		t.Fatalf("grid has %d cells, %d pinned", len(got), len(pinnedCells))
	}
	for i, c := range got {
		if c != pinnedCells[i] {
			t.Errorf("cell %d:\n got  %+v\n want %+v", i, c, pinnedCells[i])
		}
	}
}

// pinnedCells is builderGrid as recorded before the merge, in grid order.
var pinnedCells = []cellPrint{
	{"3B/Topo 2+2/dram/run", 0x401f9607b78b9366, 0x4233ac6b00000000, 3424, 0x9d146596cd0bc085, ""},
	{"3B/Topo 2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2\" has no NVMe tier (use WithSSD)"},
	{"3B/Topo 2+2/dram/offload", 0x401da9acd556d11b, 0x422a91e400000000, 3160, 0x794849818e5296cd, ""},
	{"3B/Topo 2+2/ssd/run", 0x401f9607b78b9366, 0x4233ac6b00000000, 3424, 0x9d146596cd0bc085, ""},
	{"3B/Topo 2+2/ssd/nvme", 0x40309fb8f7df5faa, 0x4233ac6b00000000, 3424, 0x9c41ea7b566f3105, ""},
	{"3B/Topo 2+2/ssd/offload", 0x401da9acd556d11b, 0x422a91e400000000, 3160, 0x794849818e5296cd, ""},
	{"3B/Topo 1+3/dram/run", 0x402272b816803936, 0x4233ac6b00000000, 3424, 0xe87fd1d359be4826, ""},
	{"3B/Topo 1+3/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 1+3\" has no NVMe tier (use WithSSD)"},
	{"3B/Topo 1+3/dram/offload", 0x402167cf228b616a, 0x422a91e400000000, 3160, 0x3b47ea8e51e03486, ""},
	{"3B/Topo 1+3/ssd/run", 0x402272b816803936, 0x4233ac6b00000000, 3424, 0xe87fd1d359be4826, ""},
	{"3B/Topo 1+3/ssd/nvme", 0x40304dd493e97a33, 0x4233ac6b00000000, 3424, 0xda8ac8e991550b07, ""},
	{"3B/Topo 1+3/ssd/offload", 0x402167cf228b616a, 0x422a91e400000000, 3160, 0x3b47ea8e51e03486, ""},
	{"3B/Topo 4/dram/run", 0x40277cec6a8be72f, 0x4233ac6b00000000, 3424, 0xed5fcb69bb9d0019, ""},
	{"3B/Topo 4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4\" has no NVMe tier (use WithSSD)"},
	{"3B/Topo 4/dram/offload", 0x4025576d121d06b5, 0x422a91e400000000, 3160, 0x21811b52c0625491, ""},
	{"3B/Topo 4/ssd/run", 0x40277cec6a8be72f, 0x4233ac6b00000000, 3424, 0xed5fcb69bb9d0019, ""},
	{"3B/Topo 4/ssd/nvme", 0x40334e359af75a91, 0x4233ac6b00000000, 3424, 0xd58f98760b5c5e85, ""},
	{"3B/Topo 4/ssd/offload", 0x4025576d121d06b5, 0x422a91e400000000, 3160, 0x21811b52c0625491, ""},
	{"3B/Topo 4+4/dram/run", 0x40322eb66b5e0195, 0x4243ac6b00000000, 11072, 0x81a77eb3950564bd, ""},
	{"3B/Topo 4+4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4+4\" has no NVMe tier (use WithSSD)"},
	{"3B/Topo 4+4/dram/offload", 0x403002ce67540581, 0x423a91e400000000, 10544, 0x29cb460a9249409d, ""},
	{"3B/Topo 4+4/ssd/run", 0x40322eb66b5e0195, 0x4243ac6b00000000, 11072, 0x81a77eb3950564bd, ""},
	{"3B/Topo 4+4/ssd/nvme", 0x4040d6fc80bddf6c, 0x4243ac6b00000000, 11072, 0x092825adda1ac625, ""},
	{"3B/Topo 4+4/ssd/offload", 0x403002ce67540581, 0x423a91e400000000, 10544, 0x29cb460a9249409d, ""},
	{"3B/Topo 2+2+2+2/dram/run", 0x402d4b0dde72fa96, 0x4243ac6b00000000, 11072, 0xf315e777de634029, ""},
	{"3B/Topo 2+2+2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2+2+2\" has no NVMe tier (use WithSSD)"},
	{"3B/Topo 2+2+2+2/dram/offload", 0x4024411e0557e0db, 0x423a91e400000000, 10544, 0x50eccedafcde36e9, ""},
	{"3B/Topo 2+2+2+2/ssd/run", 0x402d4b0dde72fa96, 0x4243ac6b00000000, 11072, 0xf315e777de634029, ""},
	{"3B/Topo 2+2+2+2/ssd/nvme", 0x403f36a4e508a96b, 0x4243ac6b00000000, 11072, 0xec70c43c88dfa361, ""},
	{"3B/Topo 2+2+2+2/ssd/offload", 0x4024411e0557e0db, 0x423a91e400000000, 10544, 0x50eccedafcde36e9, ""},
	{"3B/DC 4xV100/dram/run", 0x400494c1373f4e0b, 0x4233ac6b00000000, 4216, 0xf369a36214538c71, ""},
	{"3B/DC 4xV100/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"DC 4xV100\" has no NVMe tier (use WithSSD)"},
	{"3B/DC 4xV100/dram/offload", 0x400529de1a8a1ab9, 0x422a91e400000000, 3160, 0xb73e2daaf1d99299, ""},
	{"3B/DC 4xV100/ssd/run", 0x400494c1373f4e0b, 0x4233ac6b00000000, 4216, 0xf369a36214538c71, ""},
	{"3B/DC 4xV100/ssd/nvme", 0x402a208c4bc42314, 0x4233ac6b00000000, 3424, 0x0c623f7632525501, ""},
	{"3B/DC 4xV100/ssd/offload", 0x400529de1a8a1ab9, 0x422a91e400000000, 3160, 0xb73e2daaf1d99299, ""},
	{"8B/Topo 2+2/dram/run", 0x402e4925d32a71f6, 0x4247fb8100000000, 2176, 0x1496c9075e6570e1, ""},
	{"8B/Topo 2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2\" has no NVMe tier (use WithSSD)"},
	{"8B/Topo 2+2/dram/offload", 0x402d020af50f56ec, 0x4240185600000000, 2008, 0x3493e474a21b5fa9, ""},
	{"8B/Topo 2+2/ssd/run", 0x402e4925d32a71f6, 0x4247fb8100000000, 2176, 0x1496c9075e6570e1, ""},
	{"8B/Topo 2+2/ssd/nvme", 0x4042a47dc13e2553, 0x4247fb8100000000, 2176, 0x069ad757beb1204d, ""},
	{"8B/Topo 2+2/ssd/offload", 0x402d020af50f56ec, 0x4240185600000000, 2008, 0x3493e474a21b5fa9, ""},
	{"8B/Topo 1+3/dram/run", 0x4032a9708ef086d8, 0x4247fb8100000000, 2176, 0x689b9321344919fa, ""},
	{"8B/Topo 1+3/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 1+3\" has no NVMe tier (use WithSSD)"},
	{"8B/Topo 1+3/dram/offload", 0x40315260b597d67e, 0x4240185600000000, 2008, 0x2f29b7d66efafa9a, ""},
	{"8B/Topo 1+3/ssd/run", 0x4032a9708ef086d8, 0x4247fb8100000000, 2176, 0x689b9321344919fa, ""},
	{"8B/Topo 1+3/ssd/nvme", 0x40432b146f532185, 0x4247fb8100000000, 2176, 0x72c18db2c6504ab1, ""},
	{"8B/Topo 1+3/ssd/offload", 0x40315260b597d67e, 0x4240185600000000, 2008, 0x2f29b7d66efafa9a, ""},
	{"8B/Topo 4/dram/run", 0x4038d19b03549d06, 0x4247fb8100000000, 2176, 0x2c4f5c402044a6e1, ""},
	{"8B/Topo 4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4\" has no NVMe tier (use WithSSD)"},
	{"8B/Topo 4/dram/offload", 0x4035fc01d6f63d6f, 0x4240185600000000, 2008, 0xa1cc57fe466ecf51, ""},
	{"8B/Topo 4/ssd/run", 0x4038d19b03549d06, 0x4247fb8100000000, 2176, 0x2c4f5c402044a6e1, ""},
	{"8B/Topo 4/ssd/nvme", 0x40455c1fc799913d, 0x4247fb8100000000, 2176, 0x21ce23336bd3a169, ""},
	{"8B/Topo 4/ssd/offload", 0x4035fc01d6f63d6f, 0x4240185600000000, 2008, 0xa1cc57fe466ecf51, ""},
	{"8B/Topo 4+4/dram/run", 0x4041c659d08c96cd, 0x4257fb8100000000, 7040, 0xcc0586590a50b09d, ""},
	{"8B/Topo 4+4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4+4\" has no NVMe tier (use WithSSD)"},
	{"8B/Topo 4+4/dram/offload", 0x404017c5fc6bccb1, 0x4250185600000000, 6704, 0xf3eb7b35bfa9a611, ""},
	{"8B/Topo 4+4/ssd/run", 0x4041c659d08c96cd, 0x4257fb8100000000, 7040, 0xcc0586590a50b09d, ""},
	{"8B/Topo 4+4/ssd/nvme", 0x40525b44ec0b0649, 0x4257fb8100000000, 7040, 0xcc800fd3c3d338c9, ""},
	{"8B/Topo 4+4/ssd/offload", 0x404017c5fc6bccb1, 0x4250185600000000, 6704, 0xf3eb7b35bfa9a611, ""},
	{"8B/Topo 2+2+2+2/dram/run", 0x403ac44fe0d66d80, 0x4257fb8100000000, 7040, 0x9492e5339eb47d05, ""},
	{"8B/Topo 2+2+2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2+2+2\" has no NVMe tier (use WithSSD)"},
	{"8B/Topo 2+2+2+2/dram/offload", 0x4033839f0cdf397c, 0x4250185600000000, 6704, 0xb81d0e6b19a891e5, ""},
	{"8B/Topo 2+2+2+2/ssd/run", 0x403ac44fe0d66d80, 0x4257fb8100000000, 7040, 0x9492e5339eb47d05, ""},
	{"8B/Topo 2+2+2+2/ssd/nvme", 0x4050cfb7d2c06c1f, 0x4257fb8100000000, 7040, 0x7b25a65c42be96e1, ""},
	{"8B/Topo 2+2+2+2/ssd/offload", 0x4033839f0cdf397c, 0x4250185600000000, 6704, 0xb81d0e6b19a891e5, ""},
	{"8B/DC 4xV100/dram/run", 0x4018f6e1acfe0dd4, 0x4247fb8100000000, 2680, 0x1b8be9578926f2a5, ""},
	{"8B/DC 4xV100/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"DC 4xV100\" has no NVMe tier (use WithSSD)"},
	{"8B/DC 4xV100/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"8B/DC 4xV100/ssd/run", 0x4018f6e1acfe0dd4, 0x4247fb8100000000, 2680, 0x1b8be9578926f2a5, ""},
	{"8B/DC 4xV100/ssd/nvme", 0x403fb426c7b93d63, 0x4247fb8100000000, 2176, 0xc5f736d17532dc89, ""},
	{"8B/DC 4xV100/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 2+2/dram/run", 0x40376105482f7e3e, 0x42526790a0000000, 2176, 0xddc0d82ff364ee45, ""},
	{"15B/Topo 2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2\" has no NVMe tier (use WithSSD)"},
	{"15B/Topo 2+2/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 2+2/ssd/run", 0x40376105482f7e3e, 0x42526790a0000000, 2176, 0xddc0d82ff364ee45, ""},
	{"15B/Topo 2+2/ssd/nvme", 0x404c0041405e333e, 0x42526790a0000000, 2176, 0xc4ded576171e67b9, ""},
	{"15B/Topo 2+2/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 1+3/dram/run", 0x403bf810ae64d0f5, 0x42526790a0000000, 2176, 0xfceab307758a556e, ""},
	{"15B/Topo 1+3/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 1+3\" has no NVMe tier (use WithSSD)"},
	{"15B/Topo 1+3/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 1+3/ssd/run", 0x403bf810ae64d0f5, 0x42526790a0000000, 2176, 0xfceab307758a556e, ""},
	{"15B/Topo 1+3/ssd/nvme", 0x404d142a5c9e724d, 0x42526790a0000000, 2176, 0x3ace70f6ac291b07, ""},
	{"15B/Topo 1+3/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 4/dram/run", 0x4042d19788a077d9, 0x42526790a0000000, 2176, 0x36fcaacec68ea1a9, ""},
	{"15B/Topo 4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4\" has no NVMe tier (use WithSSD)"},
	{"15B/Topo 4/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 4/ssd/run", 0x4042d19788a077d9, 0x42526790a0000000, 2176, 0x36fcaacec68ea1a9, ""},
	{"15B/Topo 4/ssd/nvme", 0x4050408fcd66ac61, 0x42526790a0000000, 2176, 0x134227495a6aecf5, ""},
	{"15B/Topo 4/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 4+4/dram/run", 0x404aa995ed432e83, 0x42626790a0000000, 7040, 0x32d0517df069c29d, ""},
	{"15B/Topo 4+4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4+4\" has no NVMe tier (use WithSSD)"},
	{"15B/Topo 4+4/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 4+4/ssd/run", 0x404aa995ed432e83, 0x42626790a0000000, 7040, 0x32d0517df069c29d, ""},
	{"15B/Topo 4+4/ssd/nvme", 0x405be73e45abe574, 0x42626790a0000000, 7040, 0x3da1006966ef891d, ""},
	{"15B/Topo 4+4/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 2+2+2+2/dram/run", 0x4043a38b2e58641c, 0x42626790a0000000, 7040, 0xd66c24b18b7b0e75, ""},
	{"15B/Topo 2+2+2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2+2+2\" has no NVMe tier (use WithSSD)"},
	{"15B/Topo 2+2+2+2/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/Topo 2+2+2+2/ssd/run", 0x4043a38b2e58641c, 0x42626790a0000000, 7040, 0xd66c24b18b7b0e75, ""},
	{"15B/Topo 2+2+2+2/ssd/nvme", 0x4059852b4edd1428, 0x42626790a0000000, 7040, 0x15914c4eabb38f65, ""},
	{"15B/Topo 2+2+2+2/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/DC 4xV100/dram/run", 0x40137f867f11d51c, 0x42526790a0000000, 2680, 0x7add0d6941afa855, ""},
	{"15B/DC 4xV100/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"DC 4xV100\" has no NVMe tier (use WithSSD)"},
	{"15B/DC 4xV100/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"15B/DC 4xV100/ssd/run", 0x40137f867f11d51c, 0x42526790a0000000, 2680, 0x7add0d6941afa855, ""},
	{"15B/DC 4xV100/ssd/nvme", 0x404789249f84af8a, 0x42526790a0000000, 2176, 0xa463be2291f29545, ""},
	{"15B/DC 4xV100/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 2+2/dram/run", 0x40563c5abdd4bf11, 0x42722e5fb4000000, 2696, 0x7cb49aa82f3a6881, ""},
	{"51B/Topo 2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2\" has no NVMe tier (use WithSSD)"},
	{"51B/Topo 2+2/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 2+2/ssd/run", 0x40563c5abdd4bf11, 0x42722e5fb4000000, 2696, 0x7cb49aa82f3a6881, ""},
	{"51B/Topo 2+2/ssd/nvme", 0x406b2ee0681740be, 0x42722e5fb4000000, 2696, 0x71e0a21a478fec41, ""},
	{"51B/Topo 2+2/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 1+3/dram/run", 0x405b01766fb7bd4c, 0x42722e5fb4000000, 2696, 0x38d54ef591900fb4, ""},
	{"51B/Topo 1+3/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 1+3\" has no NVMe tier (use WithSSD)"},
	{"51B/Topo 1+3/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 1+3/ssd/run", 0x405b01766fb7bd4c, 0x42722e5fb4000000, 2696, 0x38d54ef591900fb4, ""},
	{"51B/Topo 1+3/ssd/nvme", 0x406c4bb18449b64e, 0x42722e5fb4000000, 2696, 0xa02abc2a266b2907, ""},
	{"51B/Topo 1+3/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 4/dram/run", 0x406218f8fae0f026, 0x42722e5fb4000000, 2696, 0x39e3240c87d00621, ""},
	{"51B/Topo 4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4\" has no NVMe tier (use WithSSD)"},
	{"51B/Topo 4/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 4/ssd/run", 0x406218f8fae0f026, 0x42722e5fb4000000, 2696, 0x39e3240c87d00621, ""},
	{"51B/Topo 4/ssd/nvme", 0x406f9ad0ad31808f, 0x42722e5fb4000000, 2696, 0xf92f4c537490cead, ""},
	{"51B/Topo 4/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 4+4/dram/run", 0x40694a91a2db7520, 0x42822e5fb4000000, 8720, 0xdf7ad326e3f0e70d, ""},
	{"51B/Topo 4+4/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 4+4\" has no NVMe tier (use WithSSD)"},
	{"51B/Topo 4+4/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 4+4/ssd/run", 0x40694a91a2db7520, 0x42822e5fb4000000, 8720, 0xdf7ad326e3f0e70d, ""},
	{"51B/Topo 4+4/ssd/nvme", 0x407b0d8f1aedf538, 0x42822e5fb4000000, 8720, 0x5dc225ed37bb4c3d, ""},
	{"51B/Topo 4+4/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 2+2+2+2/dram/run", 0x406267f2a38335d6, 0x42822e5fb4000000, 8720, 0x1c6b5e9481af8049, ""},
	{"51B/Topo 2+2+2+2/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"Topo 2+2+2+2\" has no NVMe tier (use WithSSD)"},
	{"51B/Topo 2+2+2+2/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/Topo 2+2+2+2/ssd/run", 0x406267f2a38335d6, 0x42822e5fb4000000, 8720, 0x1c6b5e9481af8049, ""},
	{"51B/Topo 2+2+2+2/ssd/nvme", 0x4078b198252bd866, 0x42822e5fb4000000, 8720, 0x95313e6c9e0e94c5, ""},
	{"51B/Topo 2+2+2+2/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/DC 4xV100/dram/run", 0x40333885658c19ea, 0x42722e5fb4000000, 3320, 0x4cbdf503f333680d, ""},
	{"51B/DC 4xV100/dram/nvme", 0x0000000000000000, 0x0000000000000000, 0, 0x0000000000000000, "zero: topology \"DC 4xV100\" has no NVMe tier (use WithSSD)"},
	{"51B/DC 4xV100/dram/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
	{"51B/DC 4xV100/ssd/run", 0x40333885658c19ea, 0x42722e5fb4000000, 3320, 0x4cbdf503f333680d, ""},
	{"51B/DC 4xV100/ssd/nvme", 0x40673b9c5eea3d83, 0x42722e5fb4000000, 2696, 0x62c93fcc5d062bb1, ""},
	{"51B/DC 4xV100/ssd/offload", 0x0000000000000000, 0x0000000000000000, 0, 0xcbf29ce484222325, ""},
}
