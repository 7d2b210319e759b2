package experiments

import (
	"fmt"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/nn"
	"mobius/internal/textgen"
	"mobius/internal/train"
	"mobius/internal/viz"
)

// Charts returns SVG renderers for the figures that benefit from a
// visual (bars, CDFs, loss curves); cmd/mobius-bench -svg writes them to
// disk. Keys carry the .svg-less file name. Renderers return an error
// instead of panicking; the CLI converts it into a non-zero exit code.
func Charts() map[string]func() (string, error) {
	return map[string]func() (string, error){
		"figure2-cdf":      ChartFigure2,
		"figure5-bars":     ChartFigure5,
		"figure7-cdf":      ChartFigure7,
		"figure13-loss":    ChartFigure13,
		"figure14-scaling": ChartFigure14,
	}
}

// cdfPoints samples a trace CDF into (GB/s, fraction) pairs.
func cdfPoints(r *core.StepReport, n int) [][2]float64 {
	pts := r.BandwidthCDF().Points(n)
	out := make([][2]float64, 0, len(pts))
	for _, p := range pts {
		out = append(out, [2]float64{p[0] / 1e9, p[1]})
	}
	return out
}

// ChartFigure2 renders the DeepSpeed bandwidth CDF of the motivation
// experiment.
func ChartFigure2() (string, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	ds, err := run(core.SystemDSHetero, core.Options{Model: model.GPT15B, Topology: topo})
	if err != nil {
		return "", err
	}
	return viz.CDFs("Figure 2: DeepSpeed bandwidth CDF (15B, Topo 2+2, GB/s)", 13.1,
		[]viz.Points{{Name: "DeepSpeed", XY: cdfPoints(ds, 64)}}), nil
}

// ChartFigure5 renders the per-step-time bars for Topo 2+2 (OOM bars
// are drawn as "x").
func ChartFigure5() (string, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	labels := []string{}
	series := make([]viz.Series, len(core.Systems()))
	for i, sys := range core.Systems() {
		series[i].Name = string(sys)
	}
	for _, m := range model.Table3() {
		labels = append(labels, m.Name)
		for i, sys := range core.Systems() {
			r, err := run(sys, core.Options{Model: m, Topology: topo})
			if err != nil {
				return "", err
			}
			v := r.StepTime
			if r.OOM {
				v = 0
			}
			series[i].Values = append(series[i].Values, v)
		}
	}
	return viz.GroupedBars("Figure 5: per-step time on Topo 2+2 (s, x = OOM)", "s/step", labels, series), nil
}

// ChartFigure7 renders the DeepSpeed-vs-Mobius bandwidth CDFs for the
// 15B model on Topo 2+2.
func ChartFigure7() (string, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	ds, err := run(core.SystemDSHetero, core.Options{Model: model.GPT15B, Topology: topo})
	if err != nil {
		return "", err
	}
	mob, err := run(core.SystemMobius, core.Options{Model: model.GPT15B, Topology: topo})
	if err != nil {
		return "", err
	}
	return viz.CDFs("Figure 7: bandwidth CDF, 15B on Topo 2+2 (GB/s)", 13.5, []viz.Points{
		{Name: "DeepSpeed", XY: cdfPoints(ds, 64)},
		{Name: "Mobius", XY: cdfPoints(mob, 64)},
	}), nil
}

// ChartFigure13 renders the GPipe / Mobius / async loss curves.
func ChartFigure13() (string, error) {
	const steps = 100
	cfg := nn.Config{Vocab: 64, Seq: 16, Dim: 32, Heads: 4, Layers: 4, Seed: 7}
	corpus, err := textgen.Generate(cfg.Vocab, 30000, 13)
	if err != nil {
		return "", fmt.Errorf("experiments: chart 13 corpus: %w", err)
	}
	var trainers []*train.Trainer
	for _, mode := range []train.Mode{train.ModeGPipe, train.ModeMobius, train.ModeAsync} {
		m, _ := nn.NewGPT(cfg)
		tr, err := train.New(m, 3, 3e-3, mode)
		if err != nil {
			return "", fmt.Errorf("experiments: chart 13 trainer: %w", err)
		}
		trainers = append(trainers, tr)
	}
	series := []viz.Points{{Name: "GPipe"}, {Name: "Mobius"}, {Name: "Async (PipeDream-style)"}}
	for step := 0; step < steps; step++ {
		var b []nn.Batch
		for i := 0; i < 4; i++ {
			b = append(b, corpus.Batch(cfg.Seq, 2, step, i))
		}
		for i, tr := range trainers {
			loss := tr.Step(b)
			series[i].XY = append(series[i].XY, [2]float64{float64(step), loss})
		}
	}
	return viz.Lines(fmt.Sprintf("Figure 13: training loss over %d steps", steps), "loss", series), nil
}

// ChartFigure14 renders measured vs perfect scaling.
func ChartFigure14() (string, error) {
	m := model.GPT15B.WithMicrobatch(1)
	measured := viz.Points{Name: "measured"}
	perfect := viz.Points{Name: "perfect linear"}
	var base float64
	for _, n := range []int{2, 4, 6, 8} {
		topo := hw.Commodity(hw.RTX3090Ti, n/2, n-n/2)
		r, err := run(core.SystemMobius, core.Options{Model: m, Topology: topo})
		if err != nil {
			return "", err
		}
		thr := float64(n) / r.StepTime
		if n == 2 {
			base = thr
		}
		measured.XY = append(measured.XY, [2]float64{float64(n), thr / base})
		perfect.XY = append(perfect.XY, [2]float64{float64(n), float64(n) / 2})
	}
	return viz.Lines("Figure 14: Mobius scaling, 15B (speedup vs 2 GPUs)", "speedup",
		[]viz.Points{measured, perfect}), nil
}
