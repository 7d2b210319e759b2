package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
	"mobius/internal/trace"
	"mobius/internal/zero"
)

// recordCell is one RunCtx call of TestReportCarriesBuilderResult and
// the step recorded for it: outcome, step-time and traffic bits, trace
// record count, and the read-time aggregates as aggregateBits renders
// them.
type recordCell struct {
	name       string
	system     System
	faults     *fault.Spec
	checksums  bool
	checkpoint bool

	outcome       string
	step, traffic uint64
	records       int
	aggregates    string
}

// recordCells covers every system RunCtx accepts on 8B / Topo 2+2, and
// the Mobius step under checksummed corruption, an exhausted retransmit
// budget and a GPU loss, so every field the shared finish sets is
// carried by some cell, and a checkpointed Mobius step, whose host-side
// snapshot writes (no GPU, no peer GPU) the host-link CDF leaves out.
var recordCells = []recordCell{
	{name: "mobius", system: SystemMobius,
		outcome: "ok", step: 0x402a12a3a487bec4, traffic: 0x4224582e80000000, records: 196,
		aggregates: "bandwidth 0x16b18947e08404fd host-link 0xeefa5fcb0409f993 overlap 0x3fac90ad26cf4633"},
	{name: "mobius/checksums", system: SystemMobius, checksums: true,
		faults:  &fault.Spec{Seed: 7, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.05}}},
		outcome: "ok", step: 0x402aa14b3e314366, traffic: 0x4224582e80000000, records: 196,
		aggregates: "bandwidth 0x38ea9f3389d085b9 host-link 0x85fb9d3ce628d67e overlap 0x3fb340f2dc966816"},
	{name: "mobius/exhausted", system: SystemMobius, checksums: true,
		faults:  &fault.Spec{Seed: 9, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.25}}},
		outcome: "corruption", step: 0x4014277b6cb6c209, traffic: 0x42123c7680000000, records: 119,
		aggregates: "bandwidth 0x9e9d97cf8b429072 host-link 0x6a8e26d54599520c overlap 0x3fb87f55843729ea"},
	{name: "mobius/gpu-loss", system: SystemMobius,
		faults:  &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 1, At: 1}}},
		outcome: "lost", step: 0x3ff0000000000000, traffic: 0x420827e400000000, records: 18,
		aggregates: "bandwidth 0x1422880bbd4b49d0 host-link 0xbe55de1134562b6 overlap 0x3fd416b5690d76ae"},
	{name: "mobius/checkpoint", system: SystemMobius, checkpoint: true,
		outcome: "ok", step: 0x402adc3d76c267ef, traffic: 0x4244dc61a0000000, records: 204,
		aggregates: "bandwidth 0xc818b80268a0b68d host-link 0xeefa5fcb0409f993 overlap 0x3fabba47a526cc96"},
	{name: "gpipe", system: SystemGPipe, outcome: "oom",
		aggregates: "bandwidth 0xdadb768b9c3e4a55 host-link 0xdadb768b9c3e4a55 overlap 0x0"},
	{name: "ds-pipeline", system: SystemDSPipeline, outcome: "oom",
		aggregates: "bandwidth 0xdadb768b9c3e4a55 host-link 0xdadb768b9c3e4a55 overlap 0x0"},
	{name: "ds-hetero", system: SystemDSHetero,
		outcome: "ok", step: 0x402e4925d32a71f6, traffic: 0x4247fb8100000000, records: 2176,
		aggregates: "bandwidth 0x8864c2c350ca0520 host-link 0xf218974158f37c46 overlap 0x3fdb82fe3e7d0497"},
	{name: "zero-offload", system: SystemZeROOffload,
		outcome: "ok", step: 0x402d020af50f56ec, traffic: 0x4240185600000000, records: 2008,
		aggregates: "bandwidth 0x828dcca04dbaefe5 host-link 0x319c35736a853431 overlap 0x3fd9e9b57348017d"},
	{name: "zero-nvme", system: SystemZeRONVMe,
		outcome: "ok", step: 0x4042a47dc13e2553, traffic: 0x4247fb8100000000, records: 2176,
		aggregates: "bandwidth 0x41e3b834702752bf host-link 0xad9325fead68084b overlap 0x3fe897bda1b864b3"},
}

// options returns the RunCtx options of a cell: a balanced eight-stage
// Mobius plan, so the test solves no MIP.
func (c recordCell) options() Options {
	opts := Options{
		Model: model.GPT8B, Topology: topo22(),
		PartitionAlgo: partition.AlgoBalanced, BalancedStages: 8,
		Faults: c.faults, Checksums: sim.ChecksumConfig{Enabled: c.checksums},
	}
	if c.checkpoint {
		opts.Checkpoint = &pipeline.CheckpointWrite{Bytes: model.GPT8B.ModelStatesBytes()}
	}
	return opts
}

// outcome names how a step ended.
func outcome(res *pipeline.Result) string {
	switch {
	case res.OOM:
		return "oom"
	case res.ResourceLost != nil:
		return "lost"
	case res.Corruption != nil:
		return "corruption"
	}
	return "ok"
}

// directResult runs the cell's builder directly, as RunCtx would, on the
// plan RunCtx chose.
func directResult(t *testing.T, c recordCell, opts Options, plan *Plan) *pipeline.Result {
	t.Helper()
	topo := opts.Topology
	prof, err := profile.Run(opts.Model, topo.GPUs[0].Spec, opts.ProfileOptions)
	if err != nil {
		t.Fatal(err)
	}
	var res *pipeline.Result
	switch c.system {
	case SystemMobius:
		st, berr := pipeline.BuildMobius(topo, pipeline.MobiusConfig{
			Partition: plan.Partition, Mapping: plan.Mapping, Microbatches: topo.NumGPUs(),
			Checkpoint: opts.Checkpoint,
		})
		if berr != nil {
			t.Fatal(berr)
		}
		res, err = st.Run(opts.Faults, opts.Checksums)
	case SystemGPipe, SystemDSPipeline:
		res, err = pipeline.RunGPipe(topo, pipeline.GPipeConfig{Profile: prof, Faults: opts.Faults, Checksums: opts.Checksums})
	case SystemDSHetero:
		res, err = zero.Run(topo, zero.Config{Profile: prof})
	case SystemZeROOffload:
		res, err = zero.RunOffload(topo, zero.Config{Profile: prof})
	case SystemZeRONVMe:
		clone := *topo
		res, err = zero.RunInfinityNVMe((&clone).WithSSD(hw.CommoditySSDBW, hw.CommoditySSDBytes), zero.Config{Profile: prof})
	default:
		t.Fatalf("no builder for %s", c.system)
	}
	if err != nil {
		t.Fatalf("%s: direct builder: %v", c.name, err)
	}
	return res
}

// view renders every field a step report takes from its builder, with
// the step's traffic, and the record count as the pinned cells record it.
func view(res *pipeline.Result, traffic float64) (fields []string, pinned string) {
	records := -1
	if res.Recorder != nil {
		records = len(res.Recorder.Flows) + len(res.Recorder.Computes)
	}
	pinned = fmt.Sprintf("%s step %#x traffic %#x records %d",
		outcome(res), math.Float64bits(res.StepTime), math.Float64bits(traffic), records)
	return []string{
		pinned,
		fmt.Sprintf("oom cause %q", res.OOMCause),
		fmt.Sprintf("lost %v corruption %v", res.ResourceLost, res.Corruption),
		fmt.Sprintf("integrity %+v", res.Integrity),
		fmt.Sprintf("faults %v", res.FaultInjection != nil),
	}, pinned
}

// cdfDigest hashes a CDF's points and total weight as fmt prints them.
// fmt prints every float in its shortest round-trip form, so two CDFs
// digest alike only if every value, cumulative weight and the total
// agree bit for bit.
func cdfDigest(c trace.CDF) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, c)
	return h.Sum64()
}

// aggregateBits renders the aggregates a report computes when read: both
// bandwidth CDFs' digests and the overlap fraction's bits.
func aggregateBits(rep *StepReport) string {
	return fmt.Sprintf("bandwidth %#x host-link %#x overlap %#x",
		cdfDigest(rep.BandwidthCDF()), cdfDigest(rep.HostLinkCDF()), math.Float64bits(rep.NonOverlapFraction()))
}

// TestReportCarriesBuilderResult holds the report RunCtx returns to the
// result a direct pipeline or zero builder call returns, for every system
// RunCtx accepts: step-time and traffic bits, OOM and its cause, the
// resource loss, the exhausted corruption, integrity accounting, fault
// injection and record count, each also pinned to the cell's recorded
// outcome, bits and count. A report that drops or alters any of them, or
// a finish that stops setting one, fails a cell. The bandwidth CDFs and
// overlap fraction read from the report are pinned to the bits the eager
// report fields held before they became methods.
func TestReportCarriesBuilderResult(t *testing.T) {
	for _, c := range recordCells {
		opts := c.options()
		rep, err := RunCtx(context.Background(), c.system, opts)
		if err != nil {
			t.Fatalf("%s: RunCtx: %v", c.name, err)
		}
		got, now := view(&rep.Result, rep.TrafficBytes)
		res := directResult(t, c, opts, rep.Plan)
		if want, _ := view(res, res.TotalTraffic()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report\n\t%q\nbuilder\n\t%q", c.name, got, want)
		}
		if rep.Server == nil || rep.Recorder == nil {
			t.Errorf("%s: report lost the server or the recorder", c.name)
		}
		if pinned := fmt.Sprintf("%s step %#x traffic %#x records %d", c.outcome, c.step, c.traffic, c.records); now != pinned {
			t.Errorf("%s: report %s, recorded %s", c.name, now, pinned)
		}
		if got := aggregateBits(rep); got != c.aggregates {
			t.Errorf("%s: aggregates %s, recorded %s", c.name, got, c.aggregates)
		}
		if (c.faults != nil) != (rep.FaultInjection != nil) {
			t.Errorf("%s: fault injection %v for spec %v", c.name, rep.FaultInjection, c.faults)
		}
		if c.checksums && rep.Integrity.ChecksumCost == 0 {
			t.Errorf("%s: checksummed step reports no checksum cost", c.name)
		}
	}
}
