package elastic

import (
	"fmt"
	"sort"
	"testing"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// survivorShape canonicalizes a topology for deduplication: losing gpu0
// or gpu1 of Topo 2+2 yields the same machine, so the property only
// needs to plan each distinct survivor once per model.
func survivorShape(topo *hw.Topology) string {
	sizes := make([]int, len(topo.RootComplexBW))
	for _, g := range topo.GPUs {
		sizes[g.RootComplex]++
	}
	sort.Ints(sizes)
	return fmt.Sprint(sizes)
}

// TestReplanEveryModelEverySingleLoss is the re-planning property: for
// every Table 3 model and every way to lose a single GPU from the
// commodity topologies, the surviving topology is valid and the MIP
// plan PolicyReplan runs, solved with no deadline, passes Plan.Validate
// — in particular, every stage fits the survivors' usable memory.
func TestReplanEveryModelEverySingleLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("plans every model x survivor shape")
	}
	topos := []*hw.Topology{
		hw.Commodity(hw.RTX3090Ti, 4),
		hw.Commodity(hw.RTX3090Ti, 2, 2),
		hw.Commodity(hw.RTX3090Ti, 1, 3),
		hw.Commodity(hw.RTX3090Ti, 4, 4),
	}
	planned := make(map[string]bool)
	for _, m := range model.Table3() {
		for _, topo := range topos {
			for g := 0; g < topo.NumGPUs(); g++ {
				spec := &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: g, At: 1}}}
				surv, gpuMap, _, err := survive(topo, spec)
				if err != nil {
					t.Fatalf("%s/%s lose gpu%d: %v", m.Name, topo.Name, g, err)
				}
				if gpuMap[g] != -1 || surv.NumGPUs() != topo.NumGPUs()-1 {
					t.Fatalf("%s lose gpu%d: survivor has %d GPUs, map %v", topo.Name, g, surv.NumGPUs(), gpuMap)
				}
				key := m.Name + "/" + survivorShape(surv)
				if planned[key] {
					continue
				}
				planned[key] = true
				t.Run(fmt.Sprintf("%s/%s/lose-gpu%d", m.Name, topo.Name, g), func(t *testing.T) {
					plan, err := core.PlanMobius(core.Options{Model: m, Topology: surv})
					if err != nil {
						t.Fatalf("re-plan on %s: %v", surv.Name, err)
					}
					if err := plan.Validate(surv); err != nil {
						t.Fatalf("re-planned plan invalid on %s: %v", surv.Name, err)
					}
				})
			}
		}
	}
	// Exactly three distinct survivor shapes exist across the four
	// topologies: [3] (Topo 4, and 1+3 losing its lone GPU), [1 2]
	// (2+2, and 1+3 losing a tripled GPU) and [3 4] (4+4).
	if want := 3 * len(model.Table3()); len(planned) != want {
		t.Fatalf("planned %d unique shapes, want %d", len(planned), want)
	}
}
