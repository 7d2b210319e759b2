package experiments

import (
	"fmt"
	"strings"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/trace"
)

// The experiment tests assert the headline *shape* claims of each paper
// figure on the simulated substrate; EXPERIMENTS.md records the numbers.

// mustRun is the test-side shorthand over the memoized run: production
// code returns errors, tests may panic.
func mustRun(sys core.System, opts core.Options) *core.StepReport {
	r, err := run(sys, opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s on %s/%s: %v", sys, opts.Model.Name, opts.Topology.Name, err))
	}
	return r
}

// mustTable runs a generator and unwraps its result.
func mustTable(t *testing.T, gen func() (*Table, error)) *Table {
	t.Helper()
	tab, err := gen()
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	return tab
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bbbb"}}
	tab.Add("x", "y")
	tab.Addf("z", 1.5)
	tab.Note("n=%d", 1)
	s := tab.String()
	for _, want := range []string{"== t ==", "bbbb", "1.500", "note: n=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering misses %q:\n%s", want, s)
		}
	}
}

func TestTable1And3Shapes(t *testing.T) {
	if got := len(mustTable(t, Table1).Rows); got != 4 {
		t.Errorf("table1 rows: %d", got)
	}
	if got := len(mustTable(t, Table3Models).Rows); got != 4 {
		t.Errorf("table3 rows: %d", got)
	}
}

func TestFigure2ShowsContention(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	r := mustRun(core.SystemDSHetero, core.Options{Model: model.GPT15B, Topology: topo})
	// The motivating observation: DeepSpeed's median transfer runs at or
	// below ~half the root complex bandwidth.
	if med := r.BandwidthCDF.Median(); med > 7.5e9 {
		t.Errorf("DeepSpeed median bandwidth %.2f GB/s, expected heavy contention", med/1e9)
	}
	if tab := mustTable(t, Figure2); len(tab.Rows) == 0 {
		t.Error("empty figure 2 table")
	}
}

func TestFigure6TrafficRatios(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	for _, m := range []model.Config{model.GPT15B} {
		ds := mustRun(core.SystemDSHetero, core.Options{Model: m, Topology: topo})
		mob := mustRun(core.SystemMobius, core.Options{Model: m, Topology: topo})
		dsRatio := ds.TrafficBytes / m.ParamBytesFP32()
		mobRatio := mob.TrafficBytes / m.ParamBytesFP32()
		if dsRatio < 5 || dsRatio > 9 {
			t.Errorf("%s: DeepSpeed traffic ratio %.2f outside [5,9]", m.Name, dsRatio)
		}
		if mobRatio < 1.1 || mobRatio > 2.3 {
			t.Errorf("%s: Mobius traffic ratio %.2f outside [1.1,2.3]", m.Name, mobRatio)
		}
		if dsRatio/mobRatio < 3 {
			t.Errorf("%s: traffic gap %.2f below ~N", m.Name, dsRatio/mobRatio)
		}
	}
}

func TestFigure5SpeedupBand(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 4) // most contended
	ds := mustRun(core.SystemDSHetero, core.Options{Model: model.GPT15B, Topology: topo})
	mob := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo})
	sp := ds.StepTime / mob.StepTime
	if sp < 2.5 {
		t.Errorf("15B/Topo4 speedup %.2f, want >= 2.5 (paper: up to 5.1)", sp)
	}
}

func TestFigure8OverlapGap(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	ds := mustRun(core.SystemDSHetero, core.Options{Model: model.GPT15B, Topology: topo})
	mob := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo})
	if ds.NonOverlapFraction < 0.5 {
		t.Errorf("DeepSpeed non-overlap %.2f, paper reports ~0.7-0.8", ds.NonOverlapFraction)
	}
	if mob.NonOverlapFraction >= ds.NonOverlapFraction {
		t.Error("Mobius must hide more communication than DeepSpeed")
	}
}

func TestFigure9MIPNeverWorse(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m := model.GPT8B
	mip := mustRun(core.SystemMobius, core.Options{Model: m, Topology: topo, PartitionAlgo: "mip"})
	maxS := mustRun(core.SystemMobius, core.Options{Model: m, Topology: topo, PartitionAlgo: "max-stage"})
	minS := mustRun(core.SystemMobius, core.Options{Model: m, Topology: topo, PartitionAlgo: "min-stage"})
	if mip.StepTime > maxS.StepTime*1.02 {
		t.Errorf("MIP %.2f worse than max-stage %.2f", mip.StepTime, maxS.StepTime)
	}
	if mip.StepTime > minS.StepTime*1.02 {
		t.Errorf("MIP %.2f worse than min-stage %.2f", mip.StepTime, minS.StepTime)
	}
	if maxS.StepTime < mip.StepTime*1.2 {
		t.Errorf("max-stage should be clearly worse (no prefetch room): %.2f vs %.2f", maxS.StepTime, mip.StepTime)
	}
}

// TestFigure12ReportsThePlannersSearch: Figure 12 times the search the
// planner runs, so its stage count is the plan's. The 51B row is left
// out: its node count depends on the MIP's wall-clock limit.
func TestFigure12ReportsThePlannersSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("plans three models on Topo 1+3")
	}
	topo := hw.Commodity(hw.RTX3090Ti, 1, 3)
	rows := map[string][]string{}
	for _, row := range mustTable(t, Figure12).Rows {
		rows[row[0]] = row
	}
	for _, m := range []model.Config{model.GPT8B, model.GPT15B} {
		plan, err := core.PlanMobius(core.Options{Model: m, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rows[m.Name][4], fmt.Sprint(plan.Partition.NumStages()); got != want {
			t.Errorf("%s: Figure 12 reports %s stages, the planner picks %s", m.Name, got, want)
		}
	}
}

func TestFigure10CrossHelpsOn8GPUs(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	m := model.GPT15B.WithMicrobatch(1)
	seq := mustRun(core.SystemMobius, core.Options{Model: m, Topology: topo, MappingScheme: "sequential"})
	cross := mustRun(core.SystemMobius, core.Options{Model: m, Topology: topo, MappingScheme: "cross"})
	if cross.StepTime > seq.StepTime*1.01 {
		t.Errorf("cross %.3f must not lose to sequential %.3f", cross.StepTime, seq.StepTime)
	}
}

func TestFigure14NearLinear(t *testing.T) {
	m := model.GPT15B.WithMicrobatch(1)
	r2 := mustRun(core.SystemMobius, core.Options{Model: m, Topology: hw.Commodity(hw.RTX3090Ti, 1, 1)})
	r8 := mustRun(core.SystemMobius, core.Options{Model: m, Topology: hw.Commodity(hw.RTX3090Ti, 4, 4)})
	thr2 := 2.0 / r2.StepTime
	thr8 := 8.0 / r8.StepTime
	if sc := thr8 / thr2; sc < 3.0 {
		t.Errorf("scaling 2->8 GPUs %.2fx, want near 4x", sc)
	}
}

func TestFigure15ShapeHolds(t *testing.T) {
	commodity := hw.Commodity(hw.RTX3090Ti, 2, 2)
	dc := hw.DataCenter(hw.V100, 4, 300*hw.GB)
	m := model.GPT15B.WithMicrobatch(2)
	mobC := mustRun(core.SystemMobius, core.Options{Model: m, Topology: commodity})
	dsDC := mustRun(core.SystemDSHetero, core.Options{Model: m, Topology: dc})
	mobDC := mustRun(core.SystemMobius, core.Options{Model: m, Topology: dc})
	if mobC.StepTime <= dsDC.StepTime {
		t.Errorf("commodity Mobius (%.2f) should be slower than DC DeepSpeed (%.2f)", mobC.StepTime, dsDC.StepTime)
	}
	if dsDC.StepTime >= mobDC.StepTime {
		t.Errorf("on the DC server DeepSpeed (%.2f) must beat Mobius (%.2f)", dsDC.StepTime, mobDC.StepTime)
	}
	if core.PricePerStep(commodity, mobC.StepTime) >= core.PricePerStep(dc, dsDC.StepTime) {
		t.Error("commodity Mobius must be cheaper per step than DC DeepSpeed")
	}
}

func TestFigure13Converges(t *testing.T) {
	tab := mustTable(t, func() (*Table, error) { return Figure13(20) })
	if len(tab.Rows) == 0 {
		t.Fatal("no convergence rows")
	}
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Fatalf("GPipe and Mobius losses differ at step %s: %s vs %s", row[0], row[1], row[2])
		}
	}
}

func TestTrafficByKindDecomposes(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	r := mustRun(core.SystemMobius, core.Options{Model: model.GPT8B, Topology: topo})
	kinds := TrafficByKind(r)
	var sum float64
	for _, v := range kinds {
		sum += v
	}
	if sum <= 0 {
		t.Fatal("no traffic recorded")
	}
	if kinds[trace.KindParamUpload] <= 0 || kinds[trace.KindGradFlush] <= 0 {
		t.Error("param uploads and gradient flushes must both appear")
	}
	if kinds[trace.KindCollective] != 0 {
		t.Error("Mobius must not use collectives")
	}
}

func TestAllRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("experiment %q registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.Gen == nil {
			t.Errorf("experiment %q has no generator", e.ID)
		}
	}
}

func TestAblationPrefetchHelps(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	off := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo, DisablePrefetch: true})
	on := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo})
	if on.StepTime > off.StepTime*1.005 {
		t.Errorf("prefetching must not slow the step: %.3f vs %.3f", on.StepTime, off.StepTime)
	}
	if off.StepTime < on.StepTime*1.03 {
		t.Errorf("disabling prefetch should cost noticeably: %.3f vs %.3f", off.StepTime, on.StepTime)
	}
}

func TestAblationPriorityNeverHurts(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 4)
	off := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo, DisablePrefetchPriority: true})
	on := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo})
	if on.StepTime > off.StepTime*1.02 {
		t.Errorf("priority must not hurt: %.3f vs %.3f", on.StepTime, off.StepTime)
	}
}

func TestAblationMicrobatchAmortization(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m2 := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo, Microbatches: 2})
	m8 := mustRun(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo, Microbatches: 8})
	if m8.StepTime/8 >= m2.StepTime/2 {
		t.Errorf("per-sample time must improve with more microbatches: %.3f vs %.3f",
			m8.StepTime/8, m2.StepTime/2)
	}
}

func TestDRAMCapacityEnforced(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	topo.DRAMBytes = 64e9 // too small for 15B model states
	if _, err := core.Run(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo}); err == nil {
		t.Fatal("model states exceeding DRAM must error")
	}
}

func TestChartsRenderWellFormedSVG(t *testing.T) {
	// The cheap charts (cached runs) must emit parseable SVG documents.
	for _, name := range []string{"figure2-cdf", "figure5-bars", "figure7-cdf", "figure14-scaling"} {
		svg, err := Charts()[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
			t.Errorf("%s: not an SVG document", name)
		}
		if len(svg) < 500 {
			t.Errorf("%s: suspiciously small (%d bytes)", name, len(svg))
		}
	}
}

func TestRelatedWorkShape(t *testing.T) {
	tab := mustTable(t, RelatedWork)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// 15B row: ZeRO-Offload OOM, everything else trains.
	row := tab.Rows[2]
	if row[0] != "15B" || row[1] != "OOM" {
		t.Fatalf("15B row: %v", row)
	}
	for i := 2; i < 5; i++ {
		if row[i] == "OOM" {
			t.Fatalf("column %d must train 15B: %v", i, row)
		}
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "b"}}
	tab.Add("1", "2")
	tab.Note("n")
	md := tab.Markdown()
	for _, want := range []string{"### T", "| a | b |", "| --- | --- |", "| 1 | 2 |", "_n_"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestResilienceMobiusDegradesLess is the acceptance check of the fault
// archetype: with one root complex degraded to 25% bandwidth on the
// 8-GPU topology, the run completes with no panics, both systems slow
// down (never speed up), and Mobius' degraded step time stays strictly
// below GPipe's degraded step time — the optimized plan loses part of
// its lead to the fault but never falls behind the baseline it beat.
// (GPipe's relative slowdown is near-zero because its parameters stay
// resident; the absolute ordering is the invariant worth holding.)
func TestResilienceMobiusDegradesLess(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	spec := resilienceSpec()
	for _, m := range []model.Config{model.GPT3B, model.GPT8B} {
		deg := map[core.System]float64{}
		for _, sys := range []core.System{core.SystemGPipe, core.SystemMobius} {
			nom := mustRun(sys, core.Options{Model: m, Topology: topo})
			flt := mustRun(sys, core.Options{Model: m, Topology: topo, Faults: spec})
			if nom.OOM || flt.OOM {
				t.Fatalf("%s/%s: unexpected OOM (nominal %v, degraded %v)", sys, m.Name, nom.OOM, flt.OOM)
			}
			if flt.StepTime < nom.StepTime {
				t.Errorf("%s/%s: degraded step %.3f faster than nominal %.3f", sys, m.Name, flt.StepTime, nom.StepTime)
			}
			deg[sys] = flt.StepTime
		}
		if deg[core.SystemMobius] >= deg[core.SystemGPipe] {
			t.Errorf("%s: degraded Mobius step %.3fs must stay strictly below degraded GPipe's %.3fs",
				m.Name, deg[core.SystemMobius], deg[core.SystemGPipe])
		}
	}
}

// TestFigure5GridDeterministicAcrossParallelism re-runs the Mobius cells
// of the Figure 5 grid with planning parallelism 1 and 8 (MIP cache off,
// so the parallel run cannot reuse the serial solve) and requires
// bit-identical step times. This is the grid-level form of the
// plan-determinism invariant: concurrency must never change a result.
func TestFigure5GridDeterministicAcrossParallelism(t *testing.T) {
	mip := partition.MIPOptions{DisableCache: true, MaxStages: 8}
	for _, m := range []model.Config{model.GPT8B, model.GPT15B} {
		for _, topo := range commodityTopologies() {
			times := map[int]float64{}
			for _, par := range []int{1, 8} {
				r, err := core.Run(core.SystemMobius, core.Options{
					Model: m, Topology: topo, MIP: mip, Parallelism: par,
				})
				if err != nil {
					t.Fatalf("%s/%s parallelism %d: %v", m.Name, topo.Name, par, err)
				}
				times[par] = r.StepTime
			}
			if times[1] != times[8] {
				t.Errorf("%s/%s: step time %v serial vs %v parallel",
					m.Name, topo.Name, times[1], times[8])
			}
		}
	}
}

// TestPrewarmMatchesSerialAssembly checks that a concurrent Prewarm
// followed by serial table assembly renders the same Figure 5 table as
// assembly alone: the prewarm only fills the memoized cache, it must
// never change what the figures report.
func TestPrewarmMatchesSerialAssembly(t *testing.T) {
	before := mustTable(t, Figure5).String()
	Prewarm(8)
	after := mustTable(t, Figure5).String()
	if before != after {
		t.Errorf("Figure 5 changed after Prewarm:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}
