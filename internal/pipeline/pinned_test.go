package pipeline

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

// stepPrint is the fingerprint of one Mobius or GPipe step: the
// step-time and traffic bits, how the step ended, the number of trace
// records, an FNV-1a hash over every flow and compute record's tag,
// start, end and bytes in recorder order, and one over the ids of every
// finished task, tagged or not, in the simulator's (end time, task id)
// order.
type stepPrint struct {
	label         string
	step, traffic uint64
	outcome       string
	records       int
	hash, order   uint64
}

// printStep fingerprints res.
func printStep(label string, res *Result) stepPrint {
	p := stepPrint{label: label, outcome: "ok"}
	switch {
	case res.OOM:
		p.outcome = "oom"
	case res.ResourceLost != nil:
		p.outcome = "lost"
	case res.Corruption != nil:
		p.outcome = "corruption"
	}
	p.step = math.Float64bits(res.StepTime)
	p.traffic = math.Float64bits(res.TotalTraffic())
	h := fnv.New64a()
	var buf []byte
	tag := func(t trace.Tag) {
		for _, v := range []int{int(t.Kind), t.GPU, t.PeerGPU, t.Stage, t.Microbatch} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
		}
	}
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for _, f := range res.Recorder.Flows {
		buf = buf[:0]
		tag(f.Tag)
		f64(f.Start)
		f64(f.End)
		f64(f.Bytes)
		h.Write(buf)
	}
	for _, c := range res.Recorder.Computes {
		buf = buf[:0]
		tag(c.Tag)
		f64(c.Start)
		f64(c.End)
		h.Write(buf)
	}
	p.records = len(res.Recorder.Flows) + len(res.Recorder.Computes)
	p.hash = h.Sum64()
	h.Reset()
	for _, t := range res.Server.Sim.Finished() {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(t.ID())))
	}
	p.order = h.Sum64()
	return p
}

// pinnedPartition is a cheap fixed plan: the balanced split into the
// fewest stages, a multiple of the GPU count and at least two rounds of
// it (so every cell prefetches), whose every stage needs at most 60% of
// a GPU's memory (so prefetch is partial on some cells).
func pinnedPartition(t *testing.T, prof *profile.Profile, topo *hw.Topology) *partition.Partition {
	t.Helper()
	N := topo.NumGPUs()
	params := partition.Params{Profile: prof, NumGPUs: N, GPUMem: topo.GPUMem(0), Bandwidth: 13.1e9}
	for S := 2 * N; S <= prof.NumLayers(); S += N {
		part, err := partition.Balanced(params, S)
		if err != nil {
			t.Fatal(err)
		}
		fits := true
		for _, st := range part.Stages {
			if st.MemBwd() > 0.6*topo.GPUMem(0) {
				fits = false
			}
		}
		if fits {
			return part
		}
	}
	t.Fatalf("%s: no balanced split fits %s", prof.Model.Name, topo.Name)
	return nil
}

// stepGrid runs every Table 3 model on Topo 2+2, 1+3 and 4+4 through
// the Mobius builder (cross and sequential mapping, each under the
// nominal schedule, both prefetch ablations, a checkpoint write, a
// bounded rc0 degradation window, checksummed corruption, an exhausted
// retransmit budget and a GPU loss) and through
// GPipe, and fingerprints each step in a fixed order.
func stepGrid(t *testing.T) []stepPrint {
	t.Helper()
	var cells []stepPrint
	for _, m := range model.Table3() {
		prof, err := profile.Run(m, hw.RTX3090Ti, profile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []*hw.Topology{
			hw.Commodity(hw.RTX3090Ti, 2, 2),
			hw.Commodity(hw.RTX3090Ti, 1, 3),
			hw.Commodity(hw.RTX3090Ti, 4, 4),
		} {
			part := pinnedPartition(t, prof, topo)
			for _, scheme := range []string{mapping.SchemeCross, mapping.SchemeSequential} {
				var mp *mapping.Mapping
				if scheme == mapping.SchemeSequential {
					mp, err = mapping.Sequential(topo, part.NumStages())
				} else {
					mp, err = mapping.Cross(context.Background(), topo, part.NumStages())
				}
				if err != nil {
					t.Fatal(err)
				}
				label := m.Name + "/" + topo.Name + "/" + scheme + "/"
				base := MobiusConfig{Partition: part, Mapping: mp}
				var nominal float64
				for _, v := range []struct {
					name string
					edit func(*MobiusConfig)
				}{
					{"nominal", func(*MobiusConfig) {}},
					{"no-prefetch", func(c *MobiusConfig) { c.DisablePrefetch = true }},
					{"no-priority", func(c *MobiusConfig) { c.DisablePrefetchPriority = true }},
					{"checkpoint", func(c *MobiusConfig) { c.Checkpoint = &CheckpointWrite{Bytes: m.ModelStatesBytes()} }},
				} {
					cfg := base
					v.edit(&cfg)
					res, err := runMobius(topo, cfg)
					if err != nil {
						t.Fatalf("%s%s: %v", label, v.name, err)
					}
					if v.name == "nominal" {
						nominal = res.StepTime
					}
					cells = append(cells, printStep(label+v.name, res))
				}

				// Each fault variant builds the nominal schedule afresh.
				half := nominal / 2
				for _, v := range []struct {
					name      string
					faults    *fault.Spec
					checksums sim.ChecksumConfig
				}{
					{"link", &fault.Spec{
						Links: []fault.LinkFault{{Link: "rc0", Multiplier: 0.5, Start: half / 2, End: half}},
					}, sim.ChecksumConfig{}},
					{"checksums", &fault.Spec{Seed: 7, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.05}}}, sim.ChecksumConfig{Enabled: true}},
					{"exhausted", &fault.Spec{Seed: 9, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.25}}}, sim.ChecksumConfig{Enabled: true}},
					{"gpu-loss", &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 1, At: half}}}, sim.ChecksumConfig{}},
				} {
					st, err := BuildMobius(topo, base)
					if err != nil {
						t.Fatal(err)
					}
					res, err := st.Run(v.faults, v.checksums)
					if err != nil {
						t.Fatalf("%s%s: %v", label, v.name, err)
					}
					cells = append(cells, printStep(label+v.name, res))
				}
			}
			res, err := RunGPipe(topo, GPipeConfig{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, printStep(m.Name+"/"+topo.Name+"/gpipe", res))
		}
	}
	return cells
}

// TestStepRecordsPinned holds the Mobius and GPipe builders and the
// simulator under them to the steps they produced when the trace
// recorder still observed a live event stream: every step-time and
// traffic bit, outcome, record count, record hash and finish-order hash
// across the grid.
func TestStepRecordsPinned(t *testing.T) {
	got := stepGrid(t)
	if len(got) != len(pinnedSteps) {
		t.Fatalf("grid has %d cells, %d pinned", len(got), len(pinnedSteps))
	}
	for i, c := range got {
		if c != pinnedSteps[i] {
			t.Errorf("cell %d:\n got  %+v\n want %+v", i, c, pinnedSteps[i])
		}
	}
}

// pinnedSteps is stepGrid as recorded while the recorder observed the
// simulator's event stream, in grid order; order hashes the finish
// notifications in the order they were delivered. The exhausted cells
// run on the fixed retransmit budget of 2; they were recorded, with
// that budget, before it stopped being configurable. The link cells
// were recorded, with the rc0 window alone, before the straggler clause
// they used to share it with was removed.
var pinnedSteps = []stepPrint{
	{"3B/Topo 2+2/cross/nominal", 0x4015c780bbc3bebf, 0x421080f180000000, "ok", 196, 0x6ee25ac44be7ebb7, 0x405fed61a4a373a5},
	{"3B/Topo 2+2/cross/no-prefetch", 0x401657994a95a0a5, 0x421080f180000000, "ok", 196, 0x75c62c16cbbbc0cd, 0x1594dda270fc2105},
	{"3B/Topo 2+2/cross/no-priority", 0x4016067c3cc64cf1, 0x421080f180000000, "ok", 196, 0x60ba00244c5ae10f, 0xb4d00d93f6dc2745},
	{"3B/Topo 2+2/cross/checkpoint", 0x401672b45d921e49, 0x4230e72e60000000, "ok", 204, 0xd6b8e73b7508314d, 0x1fd2e0a325289a45},
	{"3B/Topo 2+2/cross/link", 0x4015c780bbc3bebf, 0x421080f180000000, "ok", 196, 0xacae1ac9342e0a41, 0x405fed61a4a373a5},
	{"3B/Topo 2+2/cross/checksums", 0x401641be35720e9d, 0x421080f180000000, "ok", 196, 0x5ef95aa0b1450b93, 0x4608a595c7ac1625},
	{"3B/Topo 2+2/cross/exhausted", 0x40012165e810d816, 0x41fdb64c00000000, "corruption", 117, 0xb1bab13e50e36bac, 0xc77371838aebc368},
	{"3B/Topo 2+2/cross/gpu-loss", 0x4005c780bbc3bebf, 0x4202139480000000, "lost", 127, 0xcacf39328ff586e0, 0x19a747ca3b23f52a},
	{"3B/Topo 2+2/sequential/nominal", 0x4015c8d076528909, 0x421080f180000000, "ok", 196, 0xa7831dba46e4fe35, 0x0877aa557aa84385},
	{"3B/Topo 2+2/sequential/no-prefetch", 0x40165990e26bd015, 0x421080f180000000, "ok", 196, 0xb73544b7ca905354, 0xac93272306a0ff05},
	{"3B/Topo 2+2/sequential/no-priority", 0x40160fab67756901, 0x421080f180000000, "ok", 196, 0x37f250ae08f7694d, 0x13b3e19921d9c8c5},
	{"3B/Topo 2+2/sequential/checkpoint", 0x401674041820e893, 0x4230e72e60000000, "ok", 204, 0x3c4738ee3e55ffff, 0xc4c2673cdf4d0345},
	{"3B/Topo 2+2/sequential/link", 0x4015c8d076528909, 0x421080f180000000, "ok", 196, 0x5cbe76dd2fd78fa6, 0x0877aa557aa84385},
	{"3B/Topo 2+2/sequential/checksums", 0x4016430df000d8e7, 0x421080f180000000, "ok", 196, 0x0c1d785883a3a29a, 0x30c5c4790ce89f85},
	{"3B/Topo 2+2/sequential/exhausted", 0x400122b5a29fa260, 0x41fdb64c00000000, "corruption", 117, 0xf4e02b9f2d842843, 0x91f0a9c05f2f4ba8},
	{"3B/Topo 2+2/sequential/gpu-loss", 0x4005c8d076528909, 0x4202139480000000, "lost", 127, 0xc6edf248a2eea7bf, 0x6f75434791af7c0a},
	{"3B/Topo 2+2/gpipe", 0x4019401e1c5a818c, 0x4198000000000000, "ok", 56, 0x2eb9ef7e4ce5589d, 0xb865cc07ed548ec5},
	{"3B/Topo 1+3/cross/nominal", 0x4015c828990b23e3, 0x421080f180000000, "ok", 196, 0xd673af2a3a0a1cf9, 0xb2f0b338da2761a5},
	{"3B/Topo 1+3/cross/no-prefetch", 0x4016593cf3c81d82, 0x421080f180000000, "ok", 196, 0xa6a8bacdb4e98d30, 0x6fe10010fe77a785},
	{"3B/Topo 1+3/cross/no-priority", 0x4016461f9b104048, 0x421080f180000000, "ok", 196, 0x2ddfa2d3bec3ee8f, 0x8794e3b5920a1ae5},
	{"3B/Topo 1+3/cross/checkpoint", 0x4016735c3ad9836d, 0x4230e72e60000000, "ok", 204, 0x1670ac61bcf674fb, 0x389b16f6f0aaf765},
	{"3B/Topo 1+3/cross/link", 0x4015c828990b23e3, 0x421080f180000000, "ok", 196, 0x463dc3b2dac473df, 0xb2f0b338da2761a5},
	{"3B/Topo 1+3/cross/checksums", 0x4016426612b973c1, 0x421080f180000000, "ok", 196, 0xbebb1b745343e991, 0xd78a481d275af645},
	{"3B/Topo 1+3/cross/exhausted", 0x4001220dc5583d3b, 0x41fdb64c00000000, "corruption", 117, 0xcc1e8677916faf00, 0x0eb7fd5683032fa8},
	{"3B/Topo 1+3/cross/gpu-loss", 0x4005c828990b23e3, 0x4202139480000000, "lost", 127, 0x977158f064b75ba3, 0x3e4e4c0f2602632a},
	{"3B/Topo 1+3/sequential/nominal", 0x4015c94e5c4814e4, 0x421080f180000000, "ok", 196, 0x95674312562c5194, 0x91b7f9c316bf4c45},
	{"3B/Topo 1+3/sequential/no-prefetch", 0x40165a38bfb3353a, 0x421080f180000000, "ok", 196, 0x7f38b59e549da9fd, 0x1e5222666d428645},
	{"3B/Topo 1+3/sequential/no-priority", 0x4015cbd13cd524d3, 0x421080f180000000, "ok", 196, 0x5959fff1617f455e, 0x69a4dbae6cab0645},
	{"3B/Topo 1+3/sequential/checkpoint", 0x40167481fe16746e, 0x4230e72e60000000, "ok", 204, 0xe71cb3c9a5557055, 0xaef1cf7afb562d65},
	{"3B/Topo 1+3/sequential/link", 0x4015c94e5c4814e4, 0x421080f180000000, "ok", 196, 0x6b815fd549885558, 0x91b7f9c316bf4c45},
	{"3B/Topo 1+3/sequential/checksums", 0x40164a714645af4f, 0x421080f180000000, "ok", 196, 0xc2ce7c05fda9ed19, 0x3977cb5277bf1ac5},
	{"3B/Topo 1+3/sequential/exhausted", 0x400125a90660e989, 0x41fdb64c00000000, "corruption", 117, 0xdb7423c39a6e559a, 0x1ddf45c297ecaa48},
	{"3B/Topo 1+3/sequential/gpu-loss", 0x4005c94e5c4814e4, 0x4202139480000000, "lost", 127, 0xa9b2cafe26c9e41a, 0x6fa35aeb5bce9cca},
	{"3B/Topo 1+3/gpipe", 0x4019401e1c5a818b, 0x4198000000000000, "ok", 56, 0xc0a202f9c475696d, 0xb865cc07ed548ec5},
	{"3B/Topo 4+4/cross/nominal", 0x401823ccbc32bb51, 0x4211f0f180000000, "ok", 776, 0x199f22d6ef5c1d92, 0x7d8b87ac72c80751},
	{"3B/Topo 4+4/cross/no-prefetch", 0x401873efd76f0492, 0x4211f0f180000000, "ok", 776, 0x216db9d640c56a6a, 0xe74690f04b736d55},
	{"3B/Topo 4+4/cross/no-priority", 0x40187f591f55f368, 0x4211f0f180000000, "ok", 776, 0x1f12d2b50a7210b4, 0xe53b06466ed76f35},
	{"3B/Topo 4+4/cross/checkpoint", 0x40188cfeef60bb13, 0x4231432e60000000, "ok", 792, 0x6d2414ffa16cd109, 0x21a3c053ad79711d},
	{"3B/Topo 4+4/cross/link", 0x401823ccbc32bb51, 0x4211f0f180000000, "ok", 776, 0x1bd65f28f5ad289a, 0xaaf228ac0d96e519},
	{"3B/Topo 4+4/cross/checksums", 0x4018b769c855d1f3, 0x4211f0f180000000, "ok", 776, 0x2f3c77c332640093, 0x1380bd04659ce06d},
	{"3B/Topo 4+4/cross/exhausted", 0x3fe1d96eb2a49beb, 0x41f8916a00000000, "corruption", 102, 0x42bc8cd0f6111735, 0x088debb4842d87a6},
	{"3B/Topo 4+4/cross/gpu-loss", 0x400823ccbc32bb51, 0x4205f8f100000000, "lost", 518, 0xd075a06f9afcd713, 0xa00b4805900823b1},
	{"3B/Topo 4+4/sequential/nominal", 0x4018510cb09581f2, 0x4211f0f180000000, "ok", 776, 0x829f46b976199d72, 0x045857830b0d79e9},
	{"3B/Topo 4+4/sequential/no-prefetch", 0x401877df071b6372, 0x4211f0f180000000, "ok", 776, 0x2171cc158f813406, 0x46f84ee9a99a0561},
	{"3B/Topo 4+4/sequential/no-priority", 0x40188be49812f5da, 0x4211f0f180000000, "ok", 776, 0x8263e20e9aab9cd6, 0xf5987433202364f9},
	{"3B/Topo 4+4/sequential/checkpoint", 0x4018ba3ee3c381b4, 0x4231432e60000000, "ok", 792, 0x6fb140c10fb51199, 0x3082bd589fbc724d},
	{"3B/Topo 4+4/sequential/link", 0x4018510cb09581f2, 0x4211f0f180000000, "ok", 776, 0x12d2325a9997f993, 0x738b202625e81f71},
	{"3B/Topo 4+4/sequential/checksums", 0x401985ce97ec20c8, 0x4211f0f180000000, "ok", 776, 0x4e2f25b2ff8302fb, 0xac2d75c7e84f68f9},
	{"3B/Topo 4+4/sequential/exhausted", 0x3fe1e68bfc3882d9, 0x41f8916a00000000, "corruption", 102, 0xdda9b8db6ed51c84, 0x7633f1dc183c5d32},
	{"3B/Topo 4+4/sequential/gpu-loss", 0x4008510cb09581f2, 0x4205f8f100000000, "lost", 518, 0xce34fab47576d665, 0xd7d08815401b2bd9},
	{"3B/Topo 4+4/gpipe", 0x401c0207c59140a5, 0x41bc000000000000, "ok", 240, 0xbd7a6c6e35a351cb, 0x81660948b73c5ac5},
	{"8B/Topo 2+2/cross/nominal", 0x402a12a3a487bec4, 0x4224582e80000000, "ok", 196, 0xe00a0e0f12a2a656, 0x2b500d53f034bfc5},
	{"8B/Topo 2+2/cross/no-prefetch", 0x402abe494b565802, 0x4224582e80000000, "ok", 196, 0x063aee035ae0e33d, 0x6b6f98545f545a25},
	{"8B/Topo 2+2/cross/no-priority", 0x402a6158b1e50c6e, 0x4224582e80000000, "ok", 196, 0xa5b4289f86303871, 0xb5dd32629da1c865},
	{"8B/Topo 2+2/cross/checkpoint", 0x402adc3d76c267ef, 0x4244dc61a0000000, "ok", 204, 0x527bdfe3f94d1b9a, 0xbbe2c82cf009a3a5},
	{"8B/Topo 2+2/cross/link", 0x402a1308461226f4, 0x4224582e80000000, "ok", 196, 0x6aae32628783a430, 0x2982fdc80cefce45},
	{"8B/Topo 2+2/cross/checksums", 0x402aa14b3e314366, 0x4224582e80000000, "ok", 196, 0xd8a55ee5c72d9dee, 0xfe074d3ef3dad785},
	{"8B/Topo 2+2/cross/exhausted", 0x4014277b6cb6c209, 0x42123c7680000000, "corruption", 119, 0x72c342da1e7c5c07, 0x38be38ed3713b033},
	{"8B/Topo 2+2/cross/gpu-loss", 0x401a12a3a487bec4, 0x421668be00000000, "lost", 134, 0xea46703fd38fb292, 0x79020a86cb8ef5e2},
	{"8B/Topo 2+2/sequential/nominal", 0x402a13f35f16890c, 0x4224582e80000000, "ok", 196, 0x592c68bfd7c1bdf8, 0x9282fc47fcf819c5},
	{"8B/Topo 2+2/sequential/no-prefetch", 0x402abfecf488d4de, 0x4224582e80000000, "ok", 196, 0xdb820d930c81242b, 0x1fa4f70488e69d05},
	{"8B/Topo 2+2/sequential/no-priority", 0x402a72663bece640, 0x4224582e80000000, "ok", 196, 0x98fd042819b35ce3, 0x100466c519765405},
	{"8B/Topo 2+2/sequential/checkpoint", 0x402add8d31513237, 0x4244dc61a0000000, "ok", 204, 0xa4e4919993d65ddb, 0xa36e8db708f034c5},
	{"8B/Topo 2+2/sequential/link", 0x402a140411fd3eac, 0x4224582e80000000, "ok", 196, 0xd068f251ef3751e0, 0x90b5ecbc19b32845},
	{"8B/Topo 2+2/sequential/checksums", 0x402aa2eee763c042, 0x4224582e80000000, "ok", 196, 0x368a499973ca1493, 0xbc9b39d9d0485c85},
	{"8B/Topo 2+2/sequential/exhausted", 0x40142a1ae1d4569d, 0x42123c7680000000, "corruption", 119, 0x79661e1bd3d5282d, 0x5a5f01f74d5220f3},
	{"8B/Topo 2+2/sequential/gpu-loss", 0x401a13f35f16890c, 0x421666be00000000, "lost", 132, 0xea2cee162015ca81, 0x8f4e76c9b22a4faa},
	{"8B/Topo 2+2/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"8B/Topo 1+3/cross/nominal", 0x402a733da35f038a, 0x4224582e80000000, "ok", 196, 0x576a0e1bfac71513, 0xfdcb1e4c99132c85},
	{"8B/Topo 1+3/cross/no-prefetch", 0x402abf128e6b2864, 0x4224582e80000000, "ok", 196, 0x9f76cdcc297a503a, 0x90f488f0a9cf42c5},
	{"8B/Topo 1+3/cross/no-priority", 0x402b10a7be199ede, 0x4224582e80000000, "ok", 196, 0x693b148c0ca83c48, 0x306037bda7fd6ac5},
	{"8B/Topo 1+3/cross/checkpoint", 0x402b3cd77599acb5, 0x4244dc61a0000000, "ok", 204, 0x054df106b1f4bc2d, 0x9eb0c6513d7ebc65},
	{"8B/Topo 1+3/cross/link", 0x402a734e5645b928, 0x4224582e80000000, "ok", 196, 0x911e63c6a5418ab1, 0x6960b6e668c4d0a5},
	{"8B/Topo 1+3/cross/checksums", 0x402b00e9711d7074, 0x4224582e80000000, "ok", 196, 0x72feb862e533329a, 0xd8e988ab95bca125},
	{"8B/Topo 1+3/cross/exhausted", 0x40142973048cf179, 0x42123c7680000000, "corruption", 119, 0xe10f7136e0900f62, 0xd19cf753adcba693},
	{"8B/Topo 1+3/cross/gpu-loss", 0x401a733da35f038a, 0x42166abe00000000, "lost", 135, 0x705402a7673c8f3e, 0x43aabbfca1099317},
	{"8B/Topo 1+3/sequential/nominal", 0x402a154319a5535a, 0x4224582e80000000, "ok", 196, 0x61b0c7d6d183e71c, 0xba1f5b8dfd68a8c5},
	{"8B/Topo 1+3/sequential/no-prefetch", 0x402ac0e8c073ec96, 0x4224582e80000000, "ok", 196, 0xceae5c91d014f1c2, 0x5baedc6da8efbb85},
	{"8B/Topo 1+3/sequential/no-priority", 0x402a28e99e8bed2a, 0x4224582e80000000, "ok", 196, 0x9203d28fcaac04d9, 0x2353d2d344f86885},
	{"8B/Topo 1+3/sequential/checkpoint", 0x402adedcebdffc85, 0x4244dc61a0000000, "ok", 204, 0x917879d7e9ee27ab, 0xf33f32bd4a6c6f25},
	{"8B/Topo 1+3/sequential/link", 0x402a154319a55358, 0x4224582e80000000, "ok", 196, 0xd607f47bf40787be, 0x0120a8fae23fe045},
	{"8B/Topo 1+3/sequential/checksums", 0x402adcfa009e7340, 0x4224582e80000000, "ok", 196, 0x4c4efdbd71ae9394, 0x0350616d72a0e525},
	{"8B/Topo 1+3/sequential/exhausted", 0x40142d6234395059, 0x42123c7680000000, "corruption", 119, 0x8d1cf481c6488966, 0x48452926faf8c5d3},
	{"8B/Topo 1+3/sequential/gpu-loss", 0x401a154319a5535a, 0x421666be00000000, "lost", 132, 0x2d10501256085505, 0x4f4b1c162ec17eaa},
	{"8B/Topo 1+3/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"8B/Topo 4+4/cross/nominal", 0x402b33542bd15237, 0x4226283500000000, "ok", 776, 0x1490b6ab62b41c5a, 0x668d9eb74e358a25},
	{"8B/Topo 4+4/cross/no-prefetch", 0x402b57d243a31dea, 0x4226283500000000, "ok", 776, 0xe6747e8fc330d6fa, 0x6eddf61fd4abf625},
	{"8B/Topo 4+4/cross/no-priority", 0x402b89cfb257acf0, 0x4226283500000000, "ok", 776, 0x7383bd776a3978ea, 0xe62f4bfed1a23add},
	{"8B/Topo 4+4/cross/checkpoint", 0x402b99f28b58626b, 0x4245506340000000, "ok", 792, 0xbf2eacc093495d6d, 0xdaa5f67e4b3a83b5},
	{"8B/Topo 4+4/cross/link", 0x402b35f3a0eee6cd, 0x4226283500000000, "ok", 776, 0x00880e727f0e20a3, 0x0fc2a7ef6361e8dd},
	{"8B/Topo 4+4/cross/checksums", 0x402bfa309016526b, 0x4226283500000000, "ok", 776, 0x6f65cdb8cfb8c807, 0x1414c5eaf7966715},
	{"8B/Topo 4+4/cross/exhausted", 0x3ff59732e72d03ef, 0x420eec4c00000000, "corruption", 101, 0x5a382e1ab6cb0483, 0x647b9689d1bda994},
	{"8B/Topo 4+4/cross/gpu-loss", 0x401b33542bd15237, 0x421d265100000000, "lost", 564, 0x86057e9e9a6504ce, 0x5c34b1e4a4ae38fd},
	{"8B/Topo 4+4/sequential/nominal", 0x402b89bda135845c, 0x4226283500000000, "ok", 776, 0x46076c4c8b31e882, 0xe3aa823b47269915},
	{"8B/Topo 4+4/sequential/no-prefetch", 0x402b5c695096e1f4, 0x4226283500000000, "ok", 776, 0xecbb0efba562315f, 0x8695c0076a47f399},
	{"8B/Topo 4+4/sequential/no-priority", 0x402b8f8c828861f9, 0x4226283500000000, "ok", 776, 0x4a72b747f914447c, 0x4e8aa5de75056bdd},
	{"8B/Topo 4+4/sequential/checkpoint", 0x402bf05c00bc9490, 0x4245506340000000, "ok", 792, 0x4c4ef37456644499, 0xfa712943225c79dd},
	{"8B/Topo 4+4/sequential/link", 0x402b8b614a68013b, 0x4226283500000000, "ok", 776, 0x855e998ba0cf65bf, 0xcbf53fcc09f07b45},
	{"8B/Topo 4+4/sequential/checksums", 0x402ccf589205e0c8, 0x4226283500000000, "ok", 776, 0xfe27b15c3d2c4c0c, 0x67f1e3e6e7f66e8d},
	{"8B/Topo 4+4/sequential/exhausted", 0x3ff831dbc6c9fac7, 0x42103e5600000000, "corruption", 106, 0x5f963a57ac248c74, 0x50fda4e42916df99},
	{"8B/Topo 4+4/sequential/gpu-loss", 0x401b89bda135845c, 0x421d1e5100000000, "lost", 556, 0x4cd5e1990d06193a, 0xe8c8590154646f44},
	{"8B/Topo 4+4/gpipe", 0x40318dfbc5700b21, 0x41cc000000000000, "ok", 240, 0x13892295a2fe6aa5, 0x171aa44b62a0f565},
	{"15B/Topo 2+2/cross/nominal", 0x402518dfb281e1fe, 0x422f133a20000000, "ok", 196, 0xe83b689ab3eb704e, 0x32a26ab98927e485},
	{"15B/Topo 2+2/cross/no-prefetch", 0x402617d7c3a17344, 0x422f133a20000000, "ok", 196, 0xe62f3b0c34588748, 0x99ef4674e6cdd965},
	{"15B/Topo 2+2/cross/no-priority", 0x40258406b9f1ce98, 0x422f133a20000000, "ok", 196, 0x7de629a145c3d98a, 0xa587e58d4829ca65},
	{"15B/Topo 2+2/cross/checkpoint", 0x40266c81069c00cd, 0x4250165d04000000, "ok", 204, 0x5679418c5d6833e4, 0xcd29356661ca8425},
	{"15B/Topo 2+2/cross/link", 0x402519489cce8136, 0x422f133a20000000, "ok", 196, 0x468c81b2ea93e9d9, 0x622d6f215e486045},
	{"15B/Topo 2+2/cross/checksums", 0x402659ef9ac88718, 0x422f133a20000000, "ok", 196, 0x466952fe874828d7, 0x5f15fb812959fac5},
	{"15B/Topo 2+2/cross/exhausted", 0x401091be513bf4c0, 0x421bb3d420000000, "corruption", 119, 0xffed045083451e72, 0x0f495aa1f64b3453},
	{"15B/Topo 2+2/cross/gpu-loss", 0x401518dfb281e1fe, 0x42211776c0000000, "lost", 135, 0x8506753743f2255c, 0x6aac6c0a21098cd7},
	{"15B/Topo 2+2/sequential/nominal", 0x40257faeb440b10a, 0x422f133a20000000, "ok", 196, 0x9ce51ef7d981942d, 0x6688e8fca274c9c5},
	{"15B/Topo 2+2/sequential/no-prefetch", 0x4026416fd4b1f0c0, 0x422f133a20000000, "ok", 196, 0x08bd735e0fa6c994, 0x9d81e922dfa55905},
	{"15B/Topo 2+2/sequential/no-priority", 0x4025e6c38c417c0e, 0x422f133a20000000, "ok", 196, 0xfb0fd81c39ace406, 0x3949e1a681cdece5},
	{"15B/Topo 2+2/sequential/checkpoint", 0x4026d350085acfda, 0x4250165d04000000, "ok", 204, 0xbcfbb17ce99ed9f8, 0xb342cc5f2bbd0665},
	{"15B/Topo 2+2/sequential/link", 0x40257fe3296700a6, 0x422f133a20000000, "ok", 196, 0x6e5faf8b80970ba3, 0x068196a89dcf5165},
	{"15B/Topo 2+2/sequential/checksums", 0x40266b6b40af8704, 0x422f133a20000000, "ok", 196, 0x92cf50b564c980c7, 0x7edd8041fc9e06e5},
	{"15B/Topo 2+2/sequential/exhausted", 0x40110dc26575db87, 0x421bb3d420000000, "corruption", 119, 0xbc21bd86eabd672d, 0xbdb0bce9d32de093},
	{"15B/Topo 2+2/sequential/gpu-loss", 0x40157faeb440b10a, 0x42211596c0000000, "lost", 129, 0x49f0ed955a562b25, 0xfc6541d6ab913587},
	{"15B/Topo 2+2/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"15B/Topo 1+3/cross/nominal", 0x4026ed844cafe606, 0x422f133a20000000, "ok", 196, 0x2538fa1ccea562e7, 0xd9fb542acafa31c5},
	{"15B/Topo 1+3/cross/no-prefetch", 0x40262a0dad50cd9c, 0x422f133a20000000, "ok", 196, 0x16a783492f09d636, 0x4befd3a9e156c9e5},
	{"15B/Topo 1+3/cross/no-priority", 0x4026b3fb52d660c2, 0x422f133a20000000, "ok", 196, 0x162f97e6ff99bc6d, 0xdc546afbe6f7b325},
	{"15B/Topo 1+3/cross/checkpoint", 0x40284125a0ca04d5, 0x4250165d04000000, "ok", 204, 0xfee9484126a13d0a, 0x1e50d2e580d9b0a5},
	{"15B/Topo 1+3/cross/link", 0x4026eded36fc853c, 0x422f133a20000000, "ok", 196, 0x05407ae1191385be, 0x741bdc5c48511225},
	{"15B/Topo 1+3/cross/checksums", 0x4026cd90ba6835f0, 0x422f133a20000000, "ok", 196, 0xa78dd79478650e49, 0xe75c9fbbd30c1e65},
	{"15B/Topo 1+3/cross/exhausted", 0x401182024e679da2, 0x421bb3d420000000, "corruption", 119, 0x095181a3402d432d, 0xd5c1b282be9872b3},
	{"15B/Topo 1+3/cross/gpu-loss", 0x4016ed844cafe606, 0x422114f6c0000000, "lost", 127, 0x9378edee36ac3fa8, 0xaafad9bd3e18bbca},
	{"15B/Topo 1+3/sequential/nominal", 0x4025e26db3cd05aa, 0x422f133a20000000, "ok", 196, 0xa69039eabea9f0b9, 0x403ebdac172dcd25},
	{"15B/Topo 1+3/sequential/no-prefetch", 0x40262ddc7ab697bc, 0x422f133a20000000, "ok", 196, 0x040031479d45a0eb, 0x32523c99b6ccf105},
	{"15B/Topo 1+3/sequential/no-priority", 0x4026628a4e211a08, 0x422f133a20000000, "ok", 196, 0xa15ffba61d8a891a, 0xce0c2b439a7ab725},
	{"15B/Topo 1+3/sequential/checkpoint", 0x4027360f07e72479, 0x4250165d04000000, "ok", 204, 0x56fbe6ac43c0db7c, 0xad89427e6dd269a5},
	{"15B/Topo 1+3/sequential/link", 0x4025e26db3cd05aa, 0x422f133a20000000, "ok", 196, 0x5542b8b582f7a7b6, 0x9192a22fab8da205},
	{"15B/Topo 1+3/sequential/checksums", 0x4026d950ac2a28c0, 0x422f133a20000000, "ok", 196, 0x68a6888cbd350396, 0x13abcba064eccdc5},
	{"15B/Topo 1+3/sequential/exhausted", 0x4011b8d6201f8e91, 0x421bb3d420000000, "corruption", 119, 0x0d547dcde2e2d435, 0x49c01843d8e37373},
	{"15B/Topo 1+3/sequential/gpu-loss", 0x4015e26db3cd05aa, 0x422114f6c0000000, "lost", 127, 0x85d046ce93727ce1, 0x6b4afeb16391b04a},
	{"15B/Topo 1+3/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"15B/Topo 4+4/cross/nominal", 0x402684b1d6aebc1f, 0x423047a120000000, "ok", 776, 0x95209c996fe7591a, 0xba2cfcebeaabbaa5},
	{"15B/Topo 4+4/cross/no-prefetch", 0x40266159023c540c, 0x423047a120000000, "ok", 776, 0x8fc50ca532945493, 0x483f60be712f5131},
	{"15B/Topo 4+4/cross/no-priority", 0x4026415a30add6bf, 0x423047a120000000, "ok", 776, 0xa11e96f113496d31, 0x91c464f72ba653d9},
	{"15B/Topo 4+4/cross/checkpoint", 0x40274c5347f12a2e, 0x425045de08000000, "ok", 792, 0xba8bca37d5ab6f0b, 0x098d544edd4740b9},
	{"15B/Topo 4+4/cross/link", 0x40268727547a776d, 0x423047a120000000, "ok", 776, 0x22457ecffa620d1d, 0x3db8fa6b9c3895c1},
	{"15B/Topo 4+4/cross/checksums", 0x4027bae6e3cb0abe, 0x423047a120000000, "ok", 776, 0xa44e19f10fc9664e, 0x4bf03900694a8f5d},
	{"15B/Topo 4+4/cross/exhausted", 0x3ff8aa2aa0092af2, 0x4218b42b80000000, "corruption", 108, 0xe2efa3c594f7cba8, 0x224d93846fee52c0},
	{"15B/Topo 4+4/cross/gpu-loss", 0x401684b1d6aebc1f, 0x4223c04910000000, "lost", 546, 0xfb931810eb0af501, 0x6ed55726fd3f9034},
	{"15B/Topo 4+4/sequential/nominal", 0x4026d2797fe62a8b, 0x423047a120000000, "ok", 776, 0x2539bd7f9d27ee4d, 0x6180f1c63938f451},
	{"15B/Topo 4+4/sequential/no-prefetch", 0x402663ce80080f5c, 0x423047a120000000, "ok", 776, 0x6cd9f6c7eeaaa8b0, 0x2182cfec03bda3b1},
	{"15B/Topo 4+4/sequential/no-priority", 0x4026f22035135c0a, 0x423047a120000000, "ok", 776, 0x92bb46d1af342aac, 0x1def7f5604b1c50d},
	{"15B/Topo 4+4/sequential/checkpoint", 0x40279a1af128989a, 0x425045de08000000, "ok", 792, 0x58255c8127c76f14, 0x417f38c2dafb74e5},
	{"15B/Topo 4+4/sequential/link", 0x4026d52372d83573, 0x423047a120000000, "ok", 776, 0xe2bae39ae7b6695b, 0x298255e1fde3a735},
	{"15B/Topo 4+4/sequential/checksums", 0x40288caceb8a8a81, 0x423047a120000000, "ok", 776, 0xfe9954a5415808b8, 0xaaa0a435de7118f9},
	{"15B/Topo 4+4/sequential/exhausted", 0x3ffc8f11beeca278, 0x4218b42b80000000, "corruption", 108, 0x237792131881d653, 0x7157991eb70e3d80},
	{"15B/Topo 4+4/sequential/gpu-loss", 0x4016d2797fe62a8b, 0x4223bfa910000000, "lost", 545, 0xf9db002f29a023d8, 0xf4b3923a850ae533},
	{"15B/Topo 4+4/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"51B/Topo 2+2/cross/nominal", 0x40410574e8d637d5, 0x4251685378000000, "ok", 527, 0xf627bbcf00a7ea4e, 0x249f88b55998b531},
	{"51B/Topo 2+2/cross/no-prefetch", 0x40424c17919f9f3a, 0x4251685378000000, "ok", 520, 0x3797f87584eb3ea7, 0xccb09d5dfef21831},
	{"51B/Topo 2+2/cross/no-priority", 0x40411d6566c894ff, 0x4251685378000000, "ok", 527, 0xd904314b18e56a1c, 0xb00021a65e1b95f1},
	{"51B/Topo 2+2/cross/checkpoint", 0x40419c82a48cbf99, 0x42706f6f56000000, "ok", 547, 0x1fafa3f5fe31c0f2, 0xb5fc4ce2378e5b59},
	{"51B/Topo 2+2/cross/link", 0x4041914f7cddb21f, 0x4251685378000000, "ok", 527, 0x48076a2e6e570d9e, 0x52f9a7d45573b6c1},
	{"51B/Topo 2+2/cross/checksums", 0x4042aca1a809869b, 0x4251685378000000, "ok", 527, 0x18cb12b14ad02b7d, 0xfbfb4e6a7097f155},
	{"51B/Topo 2+2/cross/exhausted", 0x4015475f3f5ea8f6, 0x423079a318000000, "corruption", 97, 0xce009a1c86ba8738, 0x5760be7d0eafad05},
	{"51B/Topo 2+2/cross/gpu-loss", 0x40310574e8d637d5, 0x424476d908ec85f6, "lost", 371, 0xd44c8dc755197a0c, 0x464faa3b30d4a2f3},
	{"51B/Topo 2+2/sequential/nominal", 0x4041cc06ab34f27c, 0x4251685378000000, "ok", 527, 0x83479ee68313f9ed, 0xac5801262dc80b25},
	{"51B/Topo 2+2/sequential/no-prefetch", 0x4042680354b3609c, 0x4251685378000000, "ok", 520, 0x41980dd75a706aa6, 0xd274945485ce7ba1},
	{"51B/Topo 2+2/sequential/no-priority", 0x4041e398bcaf26c0, 0x4251685378000000, "ok", 527, 0x3f3fe91288e6748c, 0x3e120561bdfa3c65},
	{"51B/Topo 2+2/sequential/checkpoint", 0x4042631466eb7a40, 0x42706f6f56000000, "ok", 547, 0x5dc46457b0b344e1, 0x00ca64cca08450d5},
	{"51B/Topo 2+2/sequential/link", 0x4041ccf2ba6158b8, 0x4251685378000000, "ok", 527, 0xdf293640d6eb6a93, 0xbdc2a9b2ae73df95},
	{"51B/Topo 2+2/sequential/checksums", 0x40427597a09bc4e3, 0x4251685378000000, "ok", 527, 0xbcc36800d676a8ce, 0x4a1a972605a35179},
	{"51B/Topo 2+2/sequential/exhausted", 0x4014d3456b83e033, 0x422f055790000000, "corruption", 85, 0x28439a4f59c27378, 0x727c4bd10a4c883e},
	{"51B/Topo 2+2/sequential/gpu-loss", 0x4031cc06ab34f27c, 0x42434ff328000000, "lost", 359, 0x390a50e0eabf5716, 0xfae366d296b731e3},
	{"51B/Topo 2+2/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"51B/Topo 1+3/cross/nominal", 0x4042cfa24d1a9afe, 0x4251685378000000, "ok", 527, 0xed39461bca1a3ed1, 0x96cd1ca312a2f229},
	{"51B/Topo 1+3/cross/no-prefetch", 0x404272b00381ab3c, 0x4251685378000000, "ok", 520, 0xbf2938131bbf4d70, 0x74e80098030f61a9},
	{"51B/Topo 1+3/cross/no-priority", 0x4042cf222ee0e088, 0x4251685378000000, "ok", 527, 0x2e92f6e959a5d432, 0x1037f8ba906bd7e5},
	{"51B/Topo 1+3/cross/checkpoint", 0x404366b008d122c2, 0x42706f6f56000000, "ok", 547, 0x576c105b4e4ba4f8, 0x76e9b93d78ed1261},
	{"51B/Topo 1+3/cross/link", 0x4042d01854b0ce1c, 0x4251685378000000, "ok", 527, 0x6d8a786712f69208, 0xae4bc7e86f56f2ad},
	{"51B/Topo 1+3/cross/checksums", 0x404392583e9e17d1, 0x4251685378000000, "ok", 527, 0xf96524e87d7e4271, 0x517801246f09b23d},
	{"51B/Topo 1+3/cross/exhausted", 0x401ab3dd5174abb0, 0x4230f5f6c0000000, "corruption", 102, 0x8bd4a460e9ddfc18, 0x4ee4a755f4cacb8e},
	{"51B/Topo 1+3/cross/gpu-loss", 0x4032cfa24d1a9afe, 0x42434ff328000000, "lost", 359, 0x1b60c9a8fc886255, 0xa212fb8130c8f2f3},
	{"51B/Topo 1+3/sequential/nominal", 0x40422aa53c4250bd, 0x4251685378000000, "ok", 527, 0xb775fb0e9f3b8681, 0xf2c5f071eaad596d},
	{"51B/Topo 1+3/sequential/no-prefetch", 0x40425900fc2fcf05, 0x4251685378000000, "ok", 520, 0x51332d164467f46a, 0x2e4a492acafa01f1},
	{"51B/Topo 1+3/sequential/no-priority", 0x40425dc0eb9b87a9, 0x4251685378000000, "ok", 527, 0xe637b75458aaef02, 0x408d0c510c4d1b41},
	{"51B/Topo 1+3/sequential/checkpoint", 0x4042c1b2f7f8d881, 0x42706f6f56000000, "ok", 547, 0xfe50340c65f9545d, 0x8e5a484a38b2ab11},
	{"51B/Topo 1+3/sequential/link", 0x40422b03a8ba79a1, 0x4251685378000000, "ok", 527, 0xf9b1c53ef160d4ad, 0x78efe1457092b215},
	{"51B/Topo 1+3/sequential/checksums", 0x4043442447cb71ba, 0x4251685378000000, "ok", 527, 0x4a5c87aa08df4335, 0x3cb46e71cf66f8e1},
	{"51B/Topo 1+3/sequential/exhausted", 0x4016983537c3d068, 0x422c2101a0000000, "corruption", 69, 0xb58f3741e64db5a6, 0x1e15d5dee351d19e},
	{"51B/Topo 1+3/sequential/gpu-loss", 0x40322aa53c4250bd, 0x42434f1b28000000, "lost", 353, 0xd5416290a99b92ff, 0x280f0d5ebc684f60},
	{"51B/Topo 1+3/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
	{"51B/Topo 4+4/cross/nominal", 0x404433eb52cb89a8, 0x4250b20c28000000, "ok", 1184, 0x464a76f573e746f9, 0x856a0eaad9394c15},
	{"51B/Topo 4+4/cross/no-prefetch", 0x40449078125fdac5, 0x4250b20c28000000, "ok", 1184, 0xf2ada2057a70cb8b, 0xe352ae8772c66061},
	{"51B/Topo 4+4/cross/no-priority", 0x40442d2d72d0b883, 0x4250b20c28000000, "ok", 1184, 0x35314c444b884b26, 0x140045d1591953d1},
	{"51B/Topo 4+4/cross/checkpoint", 0x4044caf90e82116c, 0x427041dd82000000, "ok", 1208, 0xb71a39ee9ddb0ba6, 0x7ad56286e8b60e85},
	{"51B/Topo 4+4/cross/link", 0x404479d080f7761f, 0x4250b20c28000000, "ok", 1184, 0x1b40f1c08b4e2cd3, 0x3d1ada907081363d},
	{"51B/Topo 4+4/cross/checksums", 0x40455b8344c932e0, 0x4250b20c28000000, "ok", 1184, 0x33dfbfe2945f9f0c, 0x393f30410d5d2c79},
	{"51B/Topo 4+4/cross/exhausted", 0x401614a543c32202, 0x4231ef2e10000000, "corruption", 122, 0x18ef79f1fd6cd705, 0xf3ed869ba5680bc1},
	{"51B/Topo 4+4/cross/gpu-loss", 0x403433eb52cb89a8, 0x42432cc780000000, "lost", 814, 0x14054abe553559d0, 0x78e0a5c7eaf7400d},
	{"51B/Topo 4+4/sequential/nominal", 0x4045233384dc866e, 0x4250b20c28000000, "ok", 1184, 0x9c5b6e3505308c70, 0xe6603b5f7dffb329},
	{"51B/Topo 4+4/sequential/no-prefetch", 0x4044c437c999adf5, 0x4250b20c28000000, "ok", 1184, 0x9187e221081cbde1, 0xd9afd7fb57990cb9},
	{"51B/Topo 4+4/sequential/no-priority", 0x4044ba1e5ed3d325, 0x4250b20c28000000, "ok", 1184, 0x5c78dcfce42c58a5, 0x07e60e2ad707be61},
	{"51B/Topo 4+4/sequential/checkpoint", 0x4045ba4140930e32, 0x427041dd82000000, "ok", 1208, 0x19017cab3858c1f9, 0xd6cdfdf47c708ced},
	{"51B/Topo 4+4/sequential/link", 0x4045233384dc866d, 0x4250b20c28000000, "ok", 1184, 0xfd03dbba4a5edeec, 0x995d4efc92951561},
	{"51B/Topo 4+4/sequential/checksums", 0x4046a9268d750b3b, 0x4250b20c28000000, "ok", 1184, 0x1dba2631a0ef9cbf, 0x736f9d3a9738cee1},
	{"51B/Topo 4+4/sequential/exhausted", 0x401706a7a144d316, 0x4231e74e10000000, "corruption", 101, 0x6db0f828150bdc32, 0xe9ba9b41ba100a7e},
	{"51B/Topo 4+4/sequential/gpu-loss", 0x4035233384dc866e, 0x4242354030000000, "lost", 789, 0xec4aff123397b342, 0x556e504be114e65d},
	{"51B/Topo 4+4/gpipe", 0x0000000000000000, 0x0000000000000000, "oom", 0, 0xcbf29ce484222325, 0xcbf29ce484222325},
}
