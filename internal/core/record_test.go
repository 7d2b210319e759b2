package core

import (
	"context"
	"fmt"
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
	"mobius/internal/zero"
)

// recordCell is one RunCtx call of TestReportCarriesBuilderResult and
// the step recorded for it: outcome, step-time and traffic bits, and
// trace record count.
type recordCell struct {
	name      string
	system    System
	faults    *fault.Spec
	checksums bool

	outcome       string
	step, traffic uint64
	records       int
}

// recordCells covers every system RunCtx accepts on 8B / Topo 2+2, and
// the Mobius step under checksummed corruption, an exhausted retransmit
// budget and a GPU loss, so every field the shared finish sets is
// carried by some cell.
var recordCells = []recordCell{
	{name: "mobius", system: SystemMobius,
		outcome: "ok", step: 0x402a12a3a487bec4, traffic: 0x4224582e80000000, records: 196},
	{name: "mobius/checksums", system: SystemMobius, checksums: true,
		faults:  &fault.Spec{Seed: 7, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.05}}},
		outcome: "ok", step: 0x402aa14b3e314366, traffic: 0x4224582e80000000, records: 196},
	{name: "mobius/exhausted", system: SystemMobius, checksums: true,
		faults:  &fault.Spec{Seed: 9, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.25}}},
		outcome: "corruption", step: 0x4014277b6cb6c209, traffic: 0x42123c7680000000, records: 119},
	{name: "mobius/gpu-loss", system: SystemMobius,
		faults:  &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 1, At: 1}}},
		outcome: "lost", step: 0x3ff0000000000000, traffic: 0x420827e400000000, records: 18},
	{name: "gpipe", system: SystemGPipe, outcome: "oom"},
	{name: "ds-pipeline", system: SystemDSPipeline, outcome: "oom"},
	{name: "ds-hetero", system: SystemDSHetero,
		outcome: "ok", step: 0x402e4925d32a71f6, traffic: 0x4247fb8100000000, records: 2176},
	{name: "zero-offload", system: SystemZeROOffload,
		outcome: "ok", step: 0x402d020af50f56ec, traffic: 0x4240185600000000, records: 2008},
	{name: "zero-nvme", system: SystemZeRONVMe,
		outcome: "ok", step: 0x4042a47dc13e2553, traffic: 0x4247fb8100000000, records: 2176},
}

// options returns the RunCtx options of a cell: a balanced eight-stage
// Mobius plan, so the test solves no MIP.
func (c recordCell) options() Options {
	return Options{
		Model: model.GPT8B, Topology: topo22(),
		PartitionAlgo: partition.AlgoBalanced, BalancedStages: 8,
		Faults: c.faults, Checksums: sim.ChecksumConfig{Enabled: c.checksums},
	}
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

// TestReportCarriesBuilderResult holds the report RunCtx returns to the
// result a direct pipeline or zero builder call returns, for every system
// RunCtx accepts: step-time and traffic bits, OOM and its cause, the
// resource loss, the exhausted corruption, integrity accounting, fault
// injection and record count, each also pinned to the cell's recorded
// outcome, bits and count. A report that drops or alters any of them, or
// a finish that stops setting one, fails a cell.
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
		if (c.faults != nil) != (rep.FaultInjection != nil) {
			t.Errorf("%s: fault injection %v for spec %v", c.name, rep.FaultInjection, c.faults)
		}
		if c.checksums && rep.Integrity.ChecksumCost == 0 {
			t.Errorf("%s: checksummed step reports no checksum cost", c.name)
		}
	}
}
