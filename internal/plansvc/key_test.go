package plansvc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/profile"
)

var update = flag.Bool("update", false, "regenerate golden files")

// TestKeyGolden pins the canonical key of a representative request set
// to a golden file: any change to the encoding — field order, float
// handling, a forgotten field — shows up as a diff, because a silent
// key change would orphan every persisted cache observation.
func TestKeyGolden(t *testing.T) {
	reqs := []struct {
		name string
		opts core.Options
	}{
		{"8B-2+2", core.Options{Model: model.GPT8B, Topology: hw.Commodity(hw.RTX3090Ti, 2, 2)}},
		{"15B-2+2", core.Options{Model: model.GPT15B, Topology: hw.Commodity(hw.RTX3090Ti, 2, 2)}},
		{"15B-4", core.Options{Model: model.GPT15B, Topology: hw.Commodity(hw.RTX3090Ti, 4)}},
		{"15B-2+2-a6000", core.Options{Model: model.GPT15B, Topology: hw.Commodity(hw.A6000, 2, 2)}},
		{"15B-2+2-minstage", core.Options{Model: model.GPT15B, Topology: hw.Commodity(hw.RTX3090Ti, 2, 2), PartitionAlgo: partition.AlgoMinStage}},
		{"15B-2+2-m8", core.Options{Model: model.GPT15B, Topology: hw.Commodity(hw.RTX3090Ti, 2, 2), Microbatches: 8}},
		{"15B-2+2-nodes500", core.Options{Model: model.GPT15B, Topology: hw.Commodity(hw.RTX3090Ti, 2, 2), MIP: partition.MIPOptions{NodeLimit: 500}}},
	}

	var b strings.Builder
	seen := map[Key]string{}
	for _, r := range reqs {
		key, err := KeyOf(r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("requests %s and %s collide on %s", prev, r.name, key)
		}
		seen[key] = r.name
		fmt.Fprintf(&b, "%-18s %s\n", r.name, key)
	}

	golden := filepath.Join("testdata", "keys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if string(want) != b.String() {
		t.Errorf("canonical keys changed:\n--- golden\n%s--- got\n%s", want, b.String())
	}
}

// TestKeyCanonicalization checks the properties the golden file cannot:
// a zero-valued option and its explicit default address the same entry,
// float spelling is irrelevant, labels are irrelevant, and genuinely
// different content is distinct.
func TestKeyCanonicalization(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	base := core.Options{Model: model.GPT15B, Topology: topo}
	k0, err := KeyOf(base)
	if err != nil {
		t.Fatal(err)
	}

	// Explicit defaults == zero values: microbatches (= GPU count),
	// partition algorithm, mapping scheme, MIP bounds, profile repeats.
	explicit := core.Options{
		Model:          model.GPT15B,
		Topology:       topo,
		Microbatches:   4,
		PartitionAlgo:  partition.AlgoMIP,
		MappingScheme:  "cross",
		MIP:            partition.MIPOptions{MaxStages: 24, NodeLimit: 150, TimeLimit: 3 * time.Second},
		ProfileOptions: profile.Options{Repeats: 3},
	}
	if k, _ := KeyOf(explicit); k != k0 {
		t.Errorf("explicit defaults hash differently:\n zero     %s\n explicit %s", k0, k)
	}

	// Fields that provably do not change the plan are excluded.
	irrelevant := base
	irrelevant.Parallelism = 7
	irrelevant.MIP.DisableCache = true
	irrelevant.MIP.Parallelism = 3
	irrelevant.DisablePrefetch = true
	irrelevant.DisablePrefetchPriority = true
	if k, _ := KeyOf(irrelevant); k != k0 {
		t.Errorf("execution-time options leaked into the key")
	}

	// Labels are not content: renaming the model or topology changes
	// nothing...
	renamed := base
	renamed.Model.Name = "15B-renamed"
	clone := *topo
	clone.Name = "other box"
	renamed.Topology = &clone
	if k, _ := KeyOf(renamed); k != k0 {
		t.Errorf("names leaked into the key")
	}

	// ...and float spelling is not content either.
	respelled := base
	clone2 := *topo
	clone2.RootComplexBW = append([]float64(nil), topo.RootComplexBW...)
	clone2.RootComplexBW[0] = topo.RootComplexBW[0] * 1e3 / 1000.0 * 10 / 10
	respelled.Topology = &clone2
	if k, _ := KeyOf(respelled); k != k0 {
		t.Errorf("float round-trip changed the key")
	}

	// Genuinely different content is distinct.
	for name, mutate := range map[string]func(*core.Options){
		"model":        func(o *core.Options) { o.Model = model.GPT8B },
		"microbatches": func(o *core.Options) { o.Microbatches = 8 },
		"algo":         func(o *core.Options) { o.PartitionAlgo = partition.AlgoMinStage },
		"node-limit":   func(o *core.Options) { o.MIP.NodeLimit = 500 },
		"topology": func(o *core.Options) {
			c := *topo
			c.TransferLatency = topo.TransferLatency + 1e-6
			o.Topology = &c
		},
		"gpu-mem": func(o *core.Options) {
			c := *topo
			c.GPUs = append([]hw.GPU(nil), topo.GPUs...)
			spec := c.GPUs[0].Spec
			spec.MemBytes *= 2
			c.GPUs[0].Spec = spec
			o.Topology = &c
		},
	} {
		o := base
		mutate(&o)
		if k, _ := KeyOf(o); k == k0 {
			t.Errorf("%s change did not change the key", name)
		}
	}
}

// TestFingerprintCoversSemanticFields: fingerprints ignore wall-clock
// measurements but track every semantic field.
func TestFingerprintCoversSemanticFields(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	plan, err := core.PlanMobius(core.Options{Model: model.GPT8B, Topology: topo, PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4})
	if err != nil {
		t.Fatal(err)
	}
	f0 := Fingerprint(plan)
	clock := *plan
	clock.CrossMapTime = plan.CrossMapTime + time.Hour
	if Fingerprint(&clock) != f0 {
		t.Errorf("wall-clock field changed the fingerprint")
	}
	moved := *plan
	moved.Mapping = &(*plan.Mapping)
	perm := append([]int(nil), plan.Mapping.Perm...)
	perm[0], perm[1] = perm[1], perm[0]
	m2 := *plan.Mapping
	m2.Perm = perm
	moved.Mapping = &m2
	if Fingerprint(&moved) == f0 {
		t.Errorf("mapping change kept the fingerprint")
	}
}
