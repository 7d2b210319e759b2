package experiments

import (
	"fmt"
	"math"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/nn"
	"mobius/internal/textgen"
	"mobius/internal/train"
)

// Table1 prints the GPU spec and price comparison motivating the paper.
func Table1() (*Table, error) {
	t := &Table{
		Title:  "Table 1: commodity vs data-center GPU",
		Header: []string{"", "3090-Ti", "A100"},
	}
	g, a := hw.RTX3090Ti, hw.A100
	t.Add("Price", fmt.Sprintf("$%.0f", g.PriceUSD), fmt.Sprintf("$%.0f", a.PriceUSD))
	t.Add("FP16 tensor TFLOPS", fmt.Sprintf("%.0f", g.FP16TFLOPS), fmt.Sprintf("%.0f", a.FP16TFLOPS))
	t.Add("Memory (GB)", fmt.Sprintf("%.0f", g.MemBytes/1e9), fmt.Sprintf("%.0f", a.MemBytes/1e9))
	t.Add("GPUDirect P2P", fmt.Sprintf("%v", g.P2P), fmt.Sprintf("%v", a.P2P))
	t.Note("a 3090-Ti delivers comparable tensor throughput at ~1/7 the price")
	return t, nil
}

// Table3Models prints the evaluation model configurations with derived
// parameter counts.
func Table3Models() (*Table, error) {
	t := &Table{
		Title:  "Table 3: model configurations",
		Header: []string{"name", "params (B)", "heads", "hidden", "layers", "microbatch"},
	}
	for _, m := range model.Table3() {
		t.Add(m.Name,
			fmt.Sprintf("%.1f", float64(m.TotalParams())/1e9),
			fmt.Sprintf("%d", m.Heads),
			fmt.Sprintf("%d", m.Hidden),
			fmt.Sprintf("%d", m.Layers),
			fmt.Sprintf("%d", m.MicrobatchSize))
	}
	t.Note("parameter counts are derived from the architecture (12h^2 per block + untied embeddings);")
	t.Note("the \"15B\" architecture of Table 3 derives to ~13B — see EXPERIMENTS.md")
	return t, nil
}

// Figure13 reproduces the convergence experiment on the real training
// substrate: GPipe and the Mobius execution order fine-tune the same
// small GPT on the synthetic corpus; their loss curves must overlap.
func Figure13(steps int) (*Table, error) {
	if steps <= 0 {
		steps = 120
	}
	cfg := nn.Config{Vocab: 64, Seq: 16, Dim: 32, Heads: 4, Layers: 4, Seed: 7}
	corpus, err := textgen.Generate(cfg.Vocab, 30000, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 13 corpus: %w", err)
	}
	mG, _ := nn.NewGPT(cfg)
	mM, _ := nn.NewGPT(cfg)
	tG, err := train.New(mG, 3, 3e-3, train.ModeGPipe)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 13 trainer: %w", err)
	}
	tM, err := train.New(mM, 3, 3e-3, train.ModeMobius)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 13 trainer: %w", err)
	}

	t := &Table{
		Title:  fmt.Sprintf("Figure 13: training loss, GPipe vs Mobius (%d steps)", steps),
		Header: []string{"step", "GPipe loss", "Mobius loss", "abs diff"},
	}
	var maxDiff float64
	every := steps / 10
	if every == 0 {
		every = 1
	}
	for step := 0; step < steps; step++ {
		var batches []nn.Batch
		for i := 0; i < 4; i++ {
			batches = append(batches, corpus.Batch(cfg.Seq, 2, step, i))
		}
		lg := tG.Step(batches)
		lm := tM.Step(batches)
		d := math.Abs(lg - lm)
		if d > maxDiff {
			maxDiff = d
		}
		if step%every == 0 || step == steps-1 {
			t.Add(fmt.Sprintf("%d", step), fmt.Sprintf("%.4f", lg), fmt.Sprintf("%.4f", lm), fmt.Sprintf("%.2e", d))
		}
	}
	t.Note("max |GPipe - Mobius| loss difference over %d steps: %.3g", steps, maxDiff)
	t.Note("paper: the curves almost overlap; here the execution orders are numerically identical")
	return t, nil
}

// Figure14 reproduces the scalability sweep: 15B model, microbatch 1,
// 2-8 GPUs with each half under a separate root complex; the batch grows
// with the GPU count.
func Figure14() (*Table, error) {
	t := &Table{
		Title:  "Figure 14: Mobius scalability (15B, microbatch 1)",
		Header: []string{"GPUs", "step time (s)", "samples/s", "speedup", "perfect"},
	}
	m := model.GPT15B.WithMicrobatch(1)
	sr := &stepRunner{}
	var base float64
	for _, n := range []int{2, 4, 6, 8} {
		topo := hw.Commodity(hw.RTX3090Ti, n/2, n-n/2)
		r := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo})
		if sr.err != nil {
			return nil, sr.err
		}
		thr := float64(n) * float64(m.MicrobatchSize) / r.StepTime // M = n microbatches
		if n == 2 {
			base = thr
		}
		t.Add(fmt.Sprintf("%d", n), secs(r.StepTime),
			fmt.Sprintf("%.2f", thr), ratio(thr/base), ratio(float64(n)/2))
	}
	t.Note("paper: Mobius meets or exceeds linear scaling; odd splits degrade slightly")
	return sr.table(t)
}

// Figure15 reproduces the data-center comparison: per-step time and
// price for DeepSpeed and Mobius on the commodity 4x3090-Ti server vs
// the 4xV100 NVLink server.
func Figure15() (*Table, error) {
	commodity := hw.Commodity(hw.RTX3090Ti, 2, 2)
	dc := hw.DataCenter(hw.V100, 4, 300*hw.GB)
	t := &Table{
		Title:  "Figure 15: time and price per step, commodity vs data center (mbs 2)",
		Header: []string{"model", "system", "server", "step (s)", "price ($/step)"},
	}
	sr := &stepRunner{}
	var mobC, dsDC float64
	for _, m := range []model.Config{model.GPT8B.WithMicrobatch(2), model.GPT15B.WithMicrobatch(2)} {
		for _, sys := range []core.System{core.SystemDSHetero, core.SystemMobius} {
			for _, topo := range []*hw.Topology{dc, commodity} {
				r := sr.run(sys, core.Options{Model: m, Topology: topo})
				server := "commodity"
				if topo.HasP2P() {
					server = "data center"
				}
				t.Add(m.Name, string(sys), server, secs(r.StepTime),
					fmt.Sprintf("$%.5f", core.PricePerStep(topo, r.StepTime)))
				if m.Name == "15B" && sys == core.SystemMobius && !topo.HasP2P() {
					mobC = r.StepTime
				}
				if m.Name == "15B" && sys == core.SystemDSHetero && topo.HasP2P() {
					dsDC = r.StepTime
				}
			}
		}
	}
	if sr.err != nil {
		return nil, sr.err
	}
	slow := mobC/dsDC - 1
	priceCut := 1 - core.PricePerStep(commodity, mobC)/core.PricePerStep(dc, dsDC)
	t.Note("Mobius on commodity vs DeepSpeed on DC (15B): %.0f%% slower, %.0f%% cheaper per step", slow*100, priceCut*100)
	t.Note("paper: +42%% time, -43%% price")
	return t, nil
}

// Figure16 reproduces the GPU-CPU bandwidth CDFs on the data-center
// server.
func Figure16() (*Table, error) {
	dc := hw.DataCenter(hw.V100, 4, 300*hw.GB)
	t := &Table{
		Title:  "Figure 16: GPU-CPU bandwidth CDF on the data-center server (mbs 2)",
		Header: []string{"model", "system", "median GB/s", "p90 GB/s"},
	}
	sr := &stepRunner{}
	for _, m := range []model.Config{model.GPT8B.WithMicrobatch(2), model.GPT15B.WithMicrobatch(2)} {
		for _, sys := range []core.System{core.SystemDSHetero, core.SystemMobius} {
			cdf := sr.run(sys, core.Options{Model: m, Topology: dc}).HostLinkCDF()
			t.Add(m.Name, string(sys),
				fmt.Sprintf("%.2f", cdf.Median()/1e9),
				fmt.Sprintf("%.2f", cdf.Quantile(0.9)/1e9))
		}
	}
	t.Note("paper: on the DC server the contention gap between the systems narrows,")
	t.Note("but Mobius' host traffic still sees less simultaneous transfer")
	return sr.table(t)
}

// Experiment is one table or figure of the evaluation: its paper id and
// its generator. Generators return an error instead of panicking; the
// CLI converts it into a non-zero exit code.
type Experiment struct {
	ID  string
	Gen func() (*Table, error)
}

// All lists every experiment in paper order, for the CLI.
func All() []Experiment {
	return []Experiment{
		{"table1", Table1},
		{"table3", Table3Models},
		{"figure2", Figure2},
		{"figure5", Figure5},
		{"figure6", Figure6},
		{"figure7", Figure7},
		{"figure8", Figure8},
		{"figure9", Figure9},
		{"figure10", Figure10},
		{"figure11", Figure11},
		{"figure12", Figure12},
		{"figure13", func() (*Table, error) { return Figure13(120) }},
		{"figure14", Figure14},
		{"figure15", Figure15},
		{"figure16", Figure16},
		// Ablations beyond the paper's own figures.
		{"ablation-prefetch", AblationPrefetch},
		{"ablation-priority", AblationPriority},
		{"ablation-microbatches", AblationMicrobatches},
		{"related-work", RelatedWork},
		{"convergence-async", ConvergenceAsync},
		{"ablation-checkpointing", AblationCheckpointing},
		{"resilience", Resilience},
		{"recovery", Recovery},
		{"integrity", Integrity},
		{"overload", Overload},
		{"restart", Restart},
	}
}

// Lookup finds an experiment by its paper id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
