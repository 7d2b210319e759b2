package mobius

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// prints its experiment table once — the rows mirror the original plot —
// and then times a representative simulation or solve so the numbers are
// meaningful as Go benchmarks too. EXPERIMENTS.md records the
// paper-vs-measured comparison for every experiment.

import (
	"fmt"
	"sync"
	"testing"

	"mobius/internal/core"
	"mobius/internal/experiments"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/nn"
	"mobius/internal/textgen"
	"mobius/internal/train"
)

var (
	printedMu sync.Mutex
	printed   = map[string]bool{}
)

// printOnce renders an experiment table the first time its benchmark
// runs (benchmarks are re-entered with growing b.N).
func printOnce(id string) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[id] {
		return
	}
	printed[id] = true
	e, ok := experiments.Lookup(id)
	if !ok {
		panic(fmt.Sprintf("unknown experiment %s", id))
	}
	tab, err := e.Gen()
	if err != nil {
		panic(fmt.Sprintf("experiment %s: %v", id, err))
	}
	fmt.Println(tab.String())
}

// stepSim is the repeated unit of measurement for figure benchmarks: one
// full training-step simulation (planning results are cached; the
// discrete-event simulation itself re-runs every iteration).
func stepSim(b *testing.B, sys core.System, m model.Config, topo *hw.Topology) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := core.Run(sys, core.Options{Model: m, Topology: topo})
		if err != nil {
			b.Fatal(err)
		}
		if r.OOM {
			b.Fatal("unexpected OOM")
		}
	}
}

func BenchmarkTable1_GPUSpecs(b *testing.B) {
	printOnce("table1")
	for i := 0; i < b.N; i++ {
		if hw.RTX3090Ti.Effective() <= 0 || hw.A100.Effective() <= 0 {
			b.Fatal("bad spec")
		}
	}
}

func BenchmarkTable3_ModelConfigs(b *testing.B) {
	printOnce("table3")
	for i := 0; i < b.N; i++ {
		for _, m := range model.Table3() {
			if m.TotalParams() <= 0 {
				b.Fatal("bad model")
			}
		}
	}
}

func BenchmarkFigure2_DeepSpeedBandwidthCDF(b *testing.B) {
	printOnce("figure2")
	stepSim(b, core.SystemDSHetero, model.GPT15B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

func BenchmarkFigure5_PerStepTime(b *testing.B) {
	printOnce("figure5")
	stepSim(b, core.SystemMobius, model.GPT15B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

func BenchmarkFigure6_CommunicationTraffic(b *testing.B) {
	printOnce("figure6")
	stepSim(b, core.SystemMobius, model.GPT8B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

func BenchmarkFigure7_BandwidthCDF(b *testing.B) {
	printOnce("figure7")
	stepSim(b, core.SystemMobius, model.GPT51B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

func BenchmarkFigure8_NonOverlappedComm(b *testing.B) {
	printOnce("figure8")
	stepSim(b, core.SystemDSHetero, model.GPT51B, hw.Commodity(hw.RTX3090Ti, 2, 2))
}

func BenchmarkFigure9_PartitionAblation(b *testing.B) {
	printOnce("figure9")
	// Measure the min-stage variant: most stages, biggest schedule DAG.
	for i := 0; i < b.N; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{
			Model:         model.GPT8B,
			Topology:      hw.Commodity(hw.RTX3090Ti, 2, 2),
			PartitionAlgo: PartitionMinStage,
		})
		if err != nil || r.OOM {
			b.Fatalf("min-stage run failed: %v", err)
		}
	}
}

func BenchmarkFigure10_CrossMapping(b *testing.B) {
	printOnce("figure10")
	for i := 0; i < b.N; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{
			Model:         model.GPT15B,
			Topology:      hw.Commodity(hw.RTX3090Ti, 4, 4),
			MappingScheme: MappingCross,
		})
		if err != nil || r.OOM {
			b.Fatalf("cross-mapping run failed: %v", err)
		}
	}
}

func BenchmarkFigure11_MappingBandwidthCDF(b *testing.B) {
	printOnce("figure11")
	for i := 0; i < b.N; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{
			Model:         model.GPT15B,
			Topology:      hw.Commodity(hw.RTX3090Ti, 4, 4),
			MappingScheme: MappingSequential,
		})
		if err != nil || r.OOM {
			b.Fatalf("sequential-mapping run failed: %v", err)
		}
	}
}

func BenchmarkFigure12_Overhead(b *testing.B) {
	printOnce("figure12")
	// Measure an uncached MIP partition solve for the 8B model — the
	// quantity Figure 12 reports.
	topo := hw.Commodity(hw.RTX3090Ti, 1, 3)
	for i := 0; i < b.N; i++ {
		_, err := core.PlanMobius(core.Options{
			Model:    model.GPT8B,
			Topology: topo,
			MIP:      mipNoCacheOptions(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13_Convergence(b *testing.B) {
	printOnce("figure13")
	// One real Mobius training step on the nn substrate per iteration.
	cfg := nn.Config{Vocab: 64, Seq: 16, Dim: 32, Heads: 4, Layers: 4, Seed: 7}
	corpus, err := textgen.Generate(cfg.Vocab, 30000, 13)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := nn.NewGPT(cfg)
	tr, err := train.New(m, 3, 3e-3, train.ModeMobius)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batches []nn.Batch
		for k := 0; k < 4; k++ {
			batches = append(batches, corpus.Batch(cfg.Seq, 2, i, k))
		}
		tr.Step(batches)
	}
}

func BenchmarkFigure14_Scalability(b *testing.B) {
	printOnce("figure14")
	stepSim(b, core.SystemMobius, model.GPT15B.WithMicrobatch(1), hw.Commodity(hw.RTX3090Ti, 4, 4))
}

func BenchmarkFigure15_DataCenter(b *testing.B) {
	printOnce("figure15")
	stepSim(b, core.SystemDSHetero, model.GPT8B.WithMicrobatch(2), hw.DataCenter(hw.V100, 4, 300*hw.GB))
}

func BenchmarkFigure16_DataCenterBandwidthCDF(b *testing.B) {
	printOnce("figure16")
	stepSim(b, core.SystemMobius, model.GPT8B.WithMicrobatch(2), hw.DataCenter(hw.V100, 4, 300*hw.GB))
}

// BenchmarkAblationPrefetch prints the prefetch on/off ablation and
// measures the no-prefetch variant (worst case: every upload exposed).
func BenchmarkAblationPrefetch(b *testing.B) {
	printOnce("ablation-prefetch")
	for i := 0; i < b.N; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{
			Model:           model.GPT15B,
			Topology:        hw.Commodity(hw.RTX3090Ti, 2, 2),
			DisablePrefetch: true,
		})
		if err != nil || r.OOM {
			b.Fatalf("no-prefetch run failed: %v", err)
		}
	}
}

// BenchmarkAblationPriority prints the prefetch-priority ablation and
// measures the non-prioritized variant.
func BenchmarkAblationPriority(b *testing.B) {
	printOnce("ablation-priority")
	for i := 0; i < b.N; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{
			Model:                   model.GPT15B,
			Topology:                hw.Commodity(hw.RTX3090Ti, 4),
			DisablePrefetchPriority: true,
		})
		if err != nil || r.OOM {
			b.Fatalf("no-priority run failed: %v", err)
		}
	}
}

// BenchmarkAblationMicrobatches prints the M sweep and measures the
// largest pipeline (M=16).
func BenchmarkAblationMicrobatches(b *testing.B) {
	printOnce("ablation-microbatches")
	for i := 0; i < b.N; i++ {
		r, err := core.Run(core.SystemMobius, core.Options{
			Model:        model.GPT15B,
			Topology:     hw.Commodity(hw.RTX3090Ti, 2, 2),
			Microbatches: 16,
		})
		if err != nil || r.OOM {
			b.Fatalf("M=16 run failed: %v", err)
		}
	}
}
