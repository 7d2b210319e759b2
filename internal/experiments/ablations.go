package experiments

import (
	"fmt"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// Figure9 reproduces the partition-algorithm ablation: per-step time of
// the MIP partition against the maximum-stage and minimum-stage
// baselines, across microbatch sizes, on Topo 2+2 (normalized to MIP).
func Figure9() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	t := &Table{
		Title:  "Figure 9: per-step time by partition algorithm (normalized to MIP)",
		Header: []string{"model", "microbatch", "MIP (s)", "max-stage", "min-stage"},
	}
	cases := []struct {
		m   model.Config
		mbs []int
	}{
		{model.GPT8B, []int{2, 4, 8}},
		{model.GPT15B, []int{1, 2, 3}},
	}
	sr := &stepRunner{}
	worst := 1.0
	for _, c := range cases {
		for _, mbs := range c.mbs {
			m := c.m.WithMicrobatch(mbs)
			mip := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoMIP})
			maxS := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoMaxStage})
			minS := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, PartitionAlgo: partition.AlgoMinStage})
			if sr.err != nil {
				return nil, sr.err
			}
			t.Add(m.Name, fmt.Sprintf("%d", mbs), secs(mip.StepTime),
				ratio(maxS.StepTime/mip.StepTime), ratio(minS.StepTime/mip.StepTime))
			for _, r := range []float64{maxS.StepTime / mip.StepTime, minS.StepTime / mip.StepTime} {
				if r > worst {
					worst = r
				}
			}
		}
	}
	t.Note("MIP partition saves up to %.0f%% vs the worst baseline (paper: up to 51%%)", (1-1/worst)*100)
	return sr.table(t)
}

// Figure10 reproduces the mapping ablation: cross vs sequential mapping
// on an 8-GPU server where every four GPUs share a root complex.
func Figure10() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	t := &Table{
		Title:  "Figure 10: per-step time, cross vs sequential mapping (8 GPUs, Topo 4+4)",
		Header: []string{"model", "microbatch", "sequential (s)", "cross (s)", "improvement"},
	}
	cases := []struct {
		m   model.Config
		mbs []int
	}{
		{model.GPT8B, []int{2, 4, 8}},
		{model.GPT15B, []int{1, 2, 3}},
	}
	sr := &stepRunner{}
	best := 0.0
	for _, c := range cases {
		for _, mbs := range c.mbs {
			m := c.m.WithMicrobatch(mbs)
			seq := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, MappingScheme: mapping.SchemeSequential})
			cross := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, MappingScheme: mapping.SchemeCross})
			if sr.err != nil {
				return nil, sr.err
			}
			imp := 1 - cross.StepTime/seq.StepTime
			if imp > best {
				best = imp
			}
			t.Add(m.Name, fmt.Sprintf("%d", mbs), secs(seq.StepTime), secs(cross.StepTime), pct(imp))
		}
	}
	t.Note("paper: cross mapping reduces per-step time by 11.3-18.1%%; best here %.1f%%", best*100)
	return sr.table(t)
}

// Figure11 reproduces the bandwidth CDFs behind Figure 10: cross mapping
// moves more data at high bandwidth.
func Figure11() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	t := &Table{
		Title:  "Figure 11: bandwidth CDF by mapping scheme (8 GPUs, Topo 4+4)",
		Header: []string{"model", "microbatch", "seq median GB/s", "cross median GB/s", "seq >12GB/s", "cross >12GB/s"},
	}
	cases := []struct {
		m   model.Config
		mbs []int
	}{
		{model.GPT8B, []int{2, 4, 8}},
		{model.GPT15B, []int{1, 2, 3}},
	}
	sr := &stepRunner{}
	for _, c := range cases {
		for _, mbs := range c.mbs {
			m := c.m.WithMicrobatch(mbs)
			seq := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, MappingScheme: mapping.SchemeSequential})
			cross := sr.run(core.SystemMobius, core.Options{Model: m, Topology: topo, MappingScheme: mapping.SchemeCross})
			seqCDF, crossCDF := seq.BandwidthCDF(), cross.BandwidthCDF()
			t.Add(m.Name, fmt.Sprintf("%d", mbs),
				fmt.Sprintf("%.2f", seqCDF.Median()/1e9),
				fmt.Sprintf("%.2f", crossCDF.Median()/1e9),
				pct(seqCDF.FractionAbove(12e9)),
				pct(crossCDF.FractionAbove(12e9)))
		}
	}
	t.Note("paper: with cross mapping more data transfers at higher bandwidth")
	return sr.table(t)
}

// Figure12 reproduces the Mobius overhead breakdown: profiling time (with
// layer similarity), MIP solving time, and cross-mapping search time, on
// Topo 1+3. Each row reads the plan core.PlanMobius returns with the
// partition cache disabled, so it reports the search the planner runs.
// Profiling is the simulated GPU time of the compressed profile; the
// MIP solve is the solver time summed over candidates
// (MIPStats.SolveTime, which can exceed the sweep's wall-clock time)
// and the mapping a real wall-clock time.
func Figure12() (*Table, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 1, 3)
	t := &Table{
		Title:  "Figure 12: Mobius planning overhead (Topo 1+3)",
		Header: []string{"model", "profiling (s)", "MIP solve (s)", "cross map (s)", "stages", "B&B nodes"},
	}
	for _, m := range []model.Config{model.GPT8B, model.GPT15B, model.GPT51B} {
		plan, err := core.PlanMobius(core.Options{Model: m, Topology: topo, MIP: partition.MIPOptions{DisableCache: true}})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 12 plan %s: %w", m.Name, err)
		}
		t.Add(m.Name,
			fmt.Sprintf("%.2f", plan.Profile.Cost),
			fmt.Sprintf("%.2f", plan.MIPStats.SolveTime.Seconds()),
			fmt.Sprintf("%.4f", plan.CrossMapTime.Seconds()),
			fmt.Sprintf("%d", plan.Partition.NumStages()),
			fmt.Sprintf("%d", plan.MIPStats.Nodes))
	}
	t.Note("paper: overheads are negligible against fine-tuning runs of hours to days;")
	t.Note("8B and 15B profile in similar time thanks to layer similarity")
	return t, nil
}
