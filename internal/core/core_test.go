package core

import (
	"math"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
)

func topo22() *hw.Topology { return hw.Commodity(hw.RTX3090Ti, 2, 2) }

func fastMIP() partition.MIPOptions {
	// Keep test-time MIP sweeps small; benches use the defaults.
	return partition.MIPOptions{MaxStages: 8}
}

func TestPlanMobiusProducesCompletePlan(t *testing.T) {
	plan, err := PlanMobius(Options{Model: model.GPT15B, Topology: topo22(), MIP: fastMIP()})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition == nil || plan.Mapping == nil || plan.Profile == nil {
		t.Fatal("incomplete plan")
	}
	if plan.MIPStats == nil {
		t.Fatal("MIP stats missing")
	}
	if plan.PredictedStep <= 0 {
		t.Fatal("no predicted step time")
	}
	if plan.Mapping.Scheme != mapping.SchemeCross {
		t.Fatalf("default mapping scheme %q", plan.Mapping.Scheme)
	}
}

func TestRunAllSystems15B(t *testing.T) {
	// The headline sanity: on a commodity topology, Mobius trains 15B
	// while GPipe/DS-pipeline OOM, and beats DeepSpeed-hetero by a wide
	// margin (Figure 5 reports 3.8-5.1x).
	reports := map[System]*StepReport{}
	for _, sys := range Systems() {
		r, err := Run(sys, Options{Model: model.GPT15B, Topology: topo22(), MIP: fastMIP()})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		reports[sys] = r
	}
	if !reports[SystemGPipe].OOM || !reports[SystemDSPipeline].OOM {
		t.Error("GPipe and DeepSpeed-pipeline must OOM on 15B")
	}
	if reports[SystemMobius].OOM || reports[SystemDSHetero].OOM {
		t.Fatal("heterogeneous-memory systems must not OOM")
	}
	speedup := reports[SystemDSHetero].StepTime / reports[SystemMobius].StepTime
	if speedup < 2 {
		t.Errorf("Mobius speedup over DeepSpeed-hetero %.2fx, want >= 2x", speedup)
	}
	t.Logf("Mobius speedup over DeepSpeed (hetero): %.2fx", speedup)
}

func TestMobiusTrafficMuchLowerThanDeepSpeed(t *testing.T) {
	mob, err := Run(SystemMobius, Options{Model: model.GPT8B, Topology: topo22(), MIP: fastMIP()})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(SystemDSHetero, Options{Model: model.GPT8B, Topology: topo22()})
	if err != nil {
		t.Fatal(err)
	}
	ratio := ds.TrafficBytes / mob.TrafficBytes
	if ratio < 3 {
		t.Errorf("DeepSpeed/Mobius traffic ratio %.2f, want ~N (=4)", ratio)
	}
}

func TestMobiusStablePerformanceAcrossTopologies(t *testing.T) {
	// Figure 5 observation 4: Mobius' step time is almost topology-
	// independent thanks to cross mapping; DeepSpeed degrades with more
	// sharing.
	topos := []*hw.Topology{
		hw.Commodity(hw.RTX3090Ti, 2, 2),
		hw.Commodity(hw.RTX3090Ti, 1, 3),
		hw.Commodity(hw.RTX3090Ti, 4),
	}
	var mob []float64
	for _, tp := range topos {
		r, err := Run(SystemMobius, Options{Model: model.GPT15B, Topology: tp, MIP: fastMIP()})
		if err != nil {
			t.Fatal(err)
		}
		mob = append(mob, r.StepTime)
	}
	lo, hi := mob[0], mob[0]
	for _, v := range mob {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi/lo > 1.5 {
		t.Errorf("Mobius step time varies %.2fx across topologies (%v), want stable", hi/lo, mob)
	}
}

func TestNonOverlapLowerForMobius(t *testing.T) {
	// Figure 8: Mobius hides more communication under compute than
	// DeepSpeed.
	mob, err := Run(SystemMobius, Options{Model: model.GPT15B, Topology: topo22(), MIP: fastMIP()})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(SystemDSHetero, Options{Model: model.GPT15B, Topology: topo22()})
	if err != nil {
		t.Fatal(err)
	}
	if mob.NonOverlapFraction >= ds.NonOverlapFraction {
		t.Errorf("Mobius non-overlap %.2f must be below DeepSpeed %.2f",
			mob.NonOverlapFraction, ds.NonOverlapFraction)
	}
}

func TestDeepSpeedWinsOnDataCenterServer(t *testing.T) {
	// Figure 15a observation 3: with NVLink + P2P, DeepSpeed beats
	// Mobius because it exploits the full all-to-all fabric.
	dc := hw.DataCenter(hw.V100, 4, 300*hw.GB)
	mob, err := Run(SystemMobius, Options{Model: model.GPT8B.WithMicrobatch(2), Topology: dc, MIP: fastMIP()})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(SystemDSHetero, Options{Model: model.GPT8B.WithMicrobatch(2), Topology: dc})
	if err != nil {
		t.Fatal(err)
	}
	if mob.OOM || ds.OOM {
		t.Fatal("unexpected OOM on DC server")
	}
	if ds.StepTime >= mob.StepTime {
		t.Errorf("DeepSpeed (%.2fs) must beat Mobius (%.2fs) on the NVLink server", ds.StepTime, mob.StepTime)
	}
}

func TestPriceModel(t *testing.T) {
	commodity := topo22()
	dc := hw.DataCenter(hw.V100, 4, 300*hw.GB)
	if HourlyPrice(dc) <= HourlyPrice(commodity) {
		t.Fatal("data center rental must cost more per hour")
	}
	if p := PricePerStep(commodity, 3600); math.Abs(p-HourlyPrice(commodity)) > 1e-9 {
		t.Fatalf("one hour step must cost the hourly price, got %g", p)
	}
	// Figure 15b: commodity Mobius can be slower yet cheaper per step
	// than DC DeepSpeed when the slowdown is below the price gap.
	tMobC, tDSDC := 10.0, 7.0 // 42% slower
	if PricePerStep(commodity, tMobC) >= PricePerStep(dc, tDSDC) {
		t.Error("commodity training must be cheaper per step at a 1.4x slowdown")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(SystemMobius, Options{Model: model.GPT8B}); err == nil {
		t.Fatal("missing topology must error")
	}
	if _, err := Run(System("nope"), Options{Model: model.GPT8B, Topology: topo22()}); err == nil {
		t.Fatal("unknown system must error")
	}
	bad := model.GPT8B
	bad.Layers = 0
	if _, err := Run(SystemMobius, Options{Model: bad, Topology: topo22()}); err == nil {
		t.Fatal("invalid model must error")
	}
	if _, err := PlanMobius(Options{Model: model.GPT8B, Topology: topo22(), PartitionAlgo: "bogus"}); err == nil {
		t.Fatal("unknown partition algorithm must error")
	}
	if _, err := PlanMobius(Options{Model: model.GPT8B, Topology: topo22(), MappingScheme: "bogus", MIP: fastMIP()}); err == nil {
		t.Fatal("unknown mapping scheme must error")
	}
}

func TestPartitionAblationOrdering(t *testing.T) {
	// Figure 9: the MIP partition is never slower than max-stage or
	// min-stage under the same everything-else.
	base := Options{Model: model.GPT8B, Topology: topo22(), MIP: fastMIP()}
	run := func(algo string) float64 {
		o := base
		o.PartitionAlgo = algo
		r, err := Run(SystemMobius, o)
		if err != nil {
			t.Fatal(err)
		}
		if r.OOM {
			t.Fatalf("%s: OOM", algo)
		}
		return r.StepTime
	}
	mip := run(partition.AlgoMIP)
	maxS := run(partition.AlgoMaxStage)
	minS := run(partition.AlgoMinStage)
	if mip > maxS*1.02 || mip > minS*1.02 {
		t.Errorf("MIP %.3fs must beat max-stage %.3fs and min-stage %.3fs", mip, maxS, minS)
	}
	t.Logf("MIP %.3fs, max-stage %.3fs, min-stage %.3fs", mip, maxS, minS)
}

func TestPlanSerializationRoundTrip(t *testing.T) {
	opts := Options{Model: model.GPT8B, Topology: topo22(), MIP: fastMIP()}
	plan, err := PlanMobius(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalPlan(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Model != "8B" || sum.NumGPUs != 4 {
		t.Fatalf("summary: %+v", sum)
	}
	if len(sum.Stages) != plan.Partition.NumStages() {
		t.Fatalf("stages: %d vs %d", len(sum.Stages), plan.Partition.NumStages())
	}
	if sum.MIP == nil || sum.MIP.BestStageCount == 0 {
		t.Fatal("missing MIP summary")
	}
	// Stage ranges must tile the model.
	next := 0
	for _, s := range sum.Stages {
		if s.FirstLayer != next {
			t.Fatalf("stage %d starts at %d, want %d", s.Index, s.FirstLayer, next)
		}
		next = s.LastLayer + 1
	}
	if next != plan.Profile.NumLayers() {
		t.Fatalf("stages cover %d layers", next)
	}
}

func TestUnmarshalPlanRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPlan([]byte("{")); err == nil {
		t.Fatal("bad JSON must fail")
	}
	if _, err := UnmarshalPlan([]byte(`{"model":"x"}`)); err == nil {
		t.Fatal("stage-less plan must fail")
	}
}

func TestDSPipelineModeOOMsOnLargeModels(t *testing.T) {
	// DeepSpeed's pipeline mode keeps all model states in GPU memory, so
	// like GPipe it cannot hold 15B on Topo 2+2.
	r, err := Run(SystemDSPipeline, Options{Model: model.GPT15B, Topology: topo22(), Microbatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OOM {
		t.Fatal("DeepSpeed pipeline mode must OOM on 15B")
	}
}
