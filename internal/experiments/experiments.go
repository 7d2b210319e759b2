package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/plansvc"
	"mobius/internal/sim"
)

// planService is the shared planner for every experiment cell. The
// memoized runCache dedups identical (system, model, topology) cells,
// but ablation, fault and checksum variants of the same cell still
// re-plan the same inputs; routing them through one plan service turns
// those repeat solves into validated cache hits. Options.Planner is not
// part of runKey for the same reason it is excluded from plan cache
// keys: a correct planner never changes what is planned.
var planService = plansvc.New(plansvc.Config{})

// Topologies of the main evaluation (§4 "GPU topologies"), ordered from
// least to most communication contention.
func commodityTopologies() []*hw.Topology {
	return []*hw.Topology{
		hw.Commodity(hw.RTX3090Ti, 2, 2),
		hw.Commodity(hw.RTX3090Ti, 1, 3),
		hw.Commodity(hw.RTX3090Ti, 4),
	}
}

// runKey caches simulation results across experiments: many figures
// reuse the same (system, model, topology) run. The microbatch override
// and fault fingerprint keep ablation and degraded runs from colliding
// with the nominal cells.
type runKey struct {
	sys    core.System
	model  string
	mbs    int
	M      int
	topo   string
	algo   string
	mapS   string
	noPri  bool
	noPre  bool
	faults string
	checks sim.ChecksumConfig
}

var (
	runMu    sync.Mutex
	runCache = map[runKey]*core.StepReport{}
)

// run executes (with memoization) one training-step simulation.
func run(sys core.System, opts core.Options) (*core.StepReport, error) {
	key := runKey{
		sys:    sys,
		model:  opts.Model.Name,
		mbs:    opts.Model.MicrobatchSize,
		M:      opts.Microbatches,
		topo:   opts.Topology.Name,
		algo:   opts.PartitionAlgo,
		mapS:   opts.MappingScheme,
		noPri:  opts.DisablePrefetchPriority,
		noPre:  opts.DisablePrefetch,
		faults: opts.Faults.Fingerprint(),
		checks: opts.Checksums,
	}
	runMu.Lock()
	if r, ok := runCache[key]; ok {
		runMu.Unlock()
		return r, nil
	}
	runMu.Unlock()
	if opts.Planner == nil {
		opts.Planner = planService
	}
	r, err := core.Run(sys, opts)
	if err != nil {
		return nil, err
	}
	runMu.Lock()
	runCache[key] = r
	runMu.Unlock()
	return r, nil
}

// stepRunner collects the first simulation error so the figure builders
// keep their straight-line shape. After an error every subsequent run
// returns an empty report (whose accessors are all zero-safe) and the
// builder's final Err check discards the half-built table.
type stepRunner struct{ err error }

func (sr *stepRunner) run(sys core.System, opts core.Options) *core.StepReport {
	if sr.err != nil {
		return &core.StepReport{}
	}
	r, err := run(sys, opts)
	if err != nil {
		sr.err = fmt.Errorf("experiments: %s on %s/%s: %w", sys, opts.Model.Name, opts.Topology.Name, err)
		return &core.StepReport{}
	}
	return r
}

// table returns (t, nil) or (nil, err) depending on whether any run
// failed; builders end with `return sr.table(t)`.
func (sr *stepRunner) table(t *Table) (*Table, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	return t, nil
}

// Prewarm fills the memoized run cache for the main evaluation grid —
// every (system, model, topology) cell behind Figures 2 and 5-8 —
// using a bounded worker pool. parallelism caps the concurrent
// simulations (0 means GOMAXPROCS). The figure tables are still
// assembled serially from the cache afterwards, so their output (and
// the order any failure surfaces in) is identical with or without a
// prewarm; errors are deliberately dropped here because the assembly
// re-executes the failing cell and reports the error itself.
func Prewarm(parallelism int) {
	type cell struct {
		sys  core.System
		opts core.Options
	}
	var cells []cell
	for _, m := range model.Table3() {
		for _, topo := range commodityTopologies() {
			for _, sys := range core.Systems() {
				cells = append(cells, cell{sys, core.Options{Model: m, Topology: topo}})
			}
		}
	}

	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	work := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				run(c.sys, c.opts) //nolint:errcheck // see doc comment
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
}

// Figure2 reproduces the motivation plot: the GPU communication
// bandwidth CDF of DeepSpeed fine-tuning the 15B model on a 4x3090-Ti
// server where every two GPUs share a root complex.
func Figure2() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	sr := &stepRunner{}
	cdf := sr.run(core.SystemDSHetero, core.Options{Model: model.GPT15B, Topology: topo}).BandwidthCDF()
	t := &Table{
		Title:  "Figure 2: DeepSpeed bandwidth CDF (15B, 4x3090-Ti, 2+2)",
		Header: []string{"quantile", "bandwidth GB/s"},
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		t.Add(fmt.Sprintf("p%02.0f", q*100), fmt.Sprintf("%.2f", cdf.Quantile(q)/1e9))
	}
	t.Note("max observed bandwidth %.1f GB/s (root complex capacity 13.1)", cdf.Max()/1e9)
	t.Note("paper: most data below ~6 GB/s, half the root complex bandwidth")
	return sr.table(t)
}

// Figure5 reproduces the headline comparison: per-step training time of
// GPipe, DeepSpeed (both modes) and Mobius across all four models and
// three topologies.
func Figure5() (*Table, error) {
	t := &Table{
		Title:  "Figure 5: per-step time (s) by system, model, topology",
		Header: []string{"model", "topology", "GPipe", "DS-pipeline", "DS-hetero", "Mobius", "Mobius speedup"},
	}
	sr := &stepRunner{}
	var minSp, maxSp float64
	for _, m := range model.Table3() {
		for _, topo := range commodityTopologies() {
			cells := []string{m.Name, topo.Name}
			var ds, mob float64
			for _, sys := range core.Systems() {
				r := sr.run(sys, core.Options{Model: m, Topology: topo})
				if r.OOM {
					cells = append(cells, "OOM")
					continue
				}
				cells = append(cells, secs(r.StepTime))
				switch sys {
				case core.SystemDSHetero:
					ds = r.StepTime
				case core.SystemMobius:
					mob = r.StepTime
				}
			}
			if sr.err != nil {
				return nil, sr.err
			}
			sp := ds / mob
			cells = append(cells, ratio(sp))
			t.Rows = append(t.Rows, cells)
			if minSp == 0 || sp < minSp {
				minSp = sp
			}
			if sp > maxSp {
				maxSp = sp
			}
		}
	}
	t.Note("Mobius speedup over DeepSpeed-hetero: %.1f-%.1fx (paper: 3.8-5.1x)", minSp, maxSp)
	return sr.table(t)
}

// Figure6 reproduces the communication-traffic comparison: bytes moved
// per step relative to the model size.
func Figure6() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	t := &Table{
		Title:  "Figure 6: communication traffic per step (GB)",
		Header: []string{"model", "model size", "DeepSpeed", "Mobius", "DS ratio", "Mobius ratio"},
	}
	sr := &stepRunner{}
	for _, m := range []model.Config{model.GPT8B, model.GPT15B, model.GPT51B} {
		ds := sr.run(core.SystemDSHetero, core.Options{Model: m, Topology: topo})
		mob := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo})
		size := m.ParamBytesFP32()
		t.Add(m.Name, gb(size), gb(ds.TrafficBytes), gb(mob.TrafficBytes),
			ratio(ds.TrafficBytes/size), ratio(mob.TrafficBytes/size))
	}
	t.Note("paper: DeepSpeed ~7.3x model size, Mobius ~1.8x; the red line is the FP32 model size")
	return sr.table(t)
}

// Figure7 reproduces the bandwidth CDF grid: DeepSpeed vs Mobius across
// three models and three topologies (median and fraction of data above
// 12 GB/s).
func Figure7() (*Table, error) {
	t := &Table{
		Title:  "Figure 7: bandwidth CDF summary (DeepSpeed vs Mobius)",
		Header: []string{"model", "topology", "DS median GB/s", "Mobius median GB/s", "DS >12GB/s", "Mobius >12GB/s"},
	}
	sr := &stepRunner{}
	for _, m := range []model.Config{model.GPT8B, model.GPT15B, model.GPT51B} {
		for _, topo := range commodityTopologies() {
			ds := sr.run(core.SystemDSHetero, core.Options{Model: m, Topology: topo})
			mob := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo})
			dsCDF, mobCDF := ds.BandwidthCDF(), mob.BandwidthCDF()
			t.Add(m.Name, topo.Name,
				fmt.Sprintf("%.2f", dsCDF.Median()/1e9),
				fmt.Sprintf("%.2f", mobCDF.Median()/1e9),
				pct(dsCDF.FractionAbove(12e9)),
				pct(mobCDF.FractionAbove(12e9)))
		}
	}
	t.Note("paper: Mobius moves >half its data above 12 GB/s; DeepSpeed mostly below 6 GB/s")
	return sr.table(t)
}

// Figure8 reproduces the non-overlapped communication proportion for the
// 15B and 51B models across topologies.
func Figure8() (*Table, error) {
	t := &Table{
		Title:  "Figure 8: proportion of non-overlapped communication time",
		Header: []string{"model", "topology", "DeepSpeed", "Mobius", "reduction"},
	}
	sr := &stepRunner{}
	for _, m := range []model.Config{model.GPT15B, model.GPT51B} {
		for _, topo := range commodityTopologies() {
			ds := sr.run(core.SystemDSHetero, core.Options{Model: m, Topology: topo})
			mob := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo})
			dsFrac, mobFrac := ds.NonOverlapFraction(), mob.NonOverlapFraction()
			t.Add(m.Name, topo.Name, pct(dsFrac), pct(mobFrac), pct((dsFrac-mobFrac)/dsFrac))
		}
	}
	t.Note("paper: Mobius reduces the non-overlapped proportion by up to 46%%")
	return sr.table(t)
}
