package experiments

import (
	"fmt"

	"mobius/internal/elastic"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// Recovery quantifies the elastic-recovery trade-off: a GPU dies
// mid-run and the three policies — restart from scratch, resume the old
// plan on the survivors, or re-plan for the surviving topology — pay
// different combinations of lost work, state migration and planning
// time, swept over the checkpoint interval.
func Recovery() (*Table, error) {
	const steps = 8
	m := model.GPT3B
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)

	// Price a fault-free step so the failure onset lands mid-run (during
	// step 6 of 8) at every checkpoint interval.
	clean, err := elastic.Run(elastic.Config{Model: m, Topology: topo, Steps: 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: recovery baseline: %w", err)
	}
	onset := 5.5 * clean.PlainStep

	t := &Table{
		Title: fmt.Sprintf("Elastic recovery: %s on %s, gpu1 fails during step 6 of %d",
			m.Name, topo.Name, steps),
		Header: []string{"policy", "ckpt every", "total (s)", "overhead (s)", "lost work (s)", "migrate (s)", "re-plan (s)"},
	}
	type cell struct {
		policy elastic.Policy
		every  int
	}
	cells := []cell{{elastic.PolicyRestart, 0}}
	for _, p := range []elastic.Policy{elastic.PolicyResume, elastic.PolicyReplan} {
		for _, every := range []int{1, 2, 4} {
			cells = append(cells, cell{p, every})
		}
	}
	for _, c := range cells {
		rep, err := elastic.Run(elastic.Config{
			Model:           m,
			Topology:        topo,
			Steps:           steps,
			CheckpointEvery: c.every,
			Policy:          c.policy,
			Faults:          &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 1, At: onset}}},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: recovery %s/%d: %w", c.policy, c.every, err)
		}
		every := fmt.Sprintf("%d", c.every)
		if c.policy == elastic.PolicyRestart {
			every = "-"
		}
		t.Add(string(c.policy), every,
			fmt.Sprintf("%.2f", rep.TotalTime),
			fmt.Sprintf("%.2f", rep.Overhead()),
			fmt.Sprintf("%.2f", rep.LostWork),
			fmt.Sprintf("%.2f", rep.MigrationSeconds),
			fmt.Sprintf("%.2f", rep.ReplanSeconds))
	}
	t.Note("fault-free run: %d x %.2fs = %.2fs; checkpoint = %.1f GB of model states over the simulated topology", steps, clean.PlainStep, float64(steps)*clean.PlainStep, clean.CheckpointBytes/1e9)
	t.Note("restart loses all finished work; resume keeps the old (now degraded) plan; re-plan pays planner time for faster survivor steps")
	t.Note("re-plan column is wall-clock planning time, reported beside the run and not part of total or overhead: it varies across machines and collapses to ~0 once the MIP cache is warm (the restart row pays the cold solve here); all other columns are simulated and deterministic")
	return t, nil
}
