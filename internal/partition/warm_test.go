package partition

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mobius/internal/model"
)

// warmTestTimeLimit lifts the per-MILP wall-clock limit in these sweeps so
// the node limit alone bounds them: under the default 3 s limit a loaded
// machine can stop one of two compared sweeps early and change its result.
const warmTestTimeLimit = 10 * time.Minute

// TestWarmStartMatchesColdSweep solves the same planning problem cold
// and warm-started (seeded from a neighboring problem's solution) and
// requires identical outcomes: same stage boundaries, same modelled step
// time, same min-stage flag. Warm starting may only change solver
// effort — the plansvc degradation ladder depends on this equivalence to
// stay deterministic at any cache state.
func TestWarmStartMatchesColdSweep(t *testing.T) {
	for _, m := range []model.Config{model.GPT8B, model.GPT15B} {
		// Neighbor problem: the same model on one fewer GPU (the elastic
		// single-GPU-loss shape).
		neighbor := testParams(t, m, 4)
		opts := MIPOptions{Parallelism: 2, TimeLimit: warmTestTimeLimit}
		warmSrc, _, err := MIP(neighbor, opts)
		if err != nil {
			t.Fatalf("%s neighbor solve: %v", m.Name, err)
		}

		target := testParams(t, m, 3)
		cold, coldStats, err := MIP(target, opts)
		if err != nil {
			t.Fatalf("%s cold solve: %v", m.Name, err)
		}

		wopts := opts
		wopts.Warm = warmSrc
		warm, warmStats, err := MIP(target, wopts)
		if err != nil {
			t.Fatalf("%s warm solve: %v", m.Name, err)
		}

		if !warmStats.WarmStart {
			t.Errorf("%s: warm solve did not register the warm seed", m.Name)
		}
		if !reflect.DeepEqual(cold.Stages, warm.Stages) {
			t.Errorf("%s: warm-started sweep chose different stages\ncold: %+v\nwarm: %+v", m.Name, cold.Stages, warm.Stages)
		}
		if cold.Algorithm != warm.Algorithm {
			t.Errorf("%s: algorithm differs: cold %q warm %q", m.Name, cold.Algorithm, warm.Algorithm)
		}
		if coldStats.StepTime != warmStats.StepTime {
			t.Errorf("%s: objective differs: cold %v warm %v", m.Name, coldStats.StepTime, warmStats.StepTime)
		}
		if coldStats.UsedMinStageFallback != warmStats.UsedMinStageFallback {
			t.Errorf("%s: min-stage flag differs", m.Name)
		}
	}
}

// TestWarmStartIgnoresIncompatibleShape feeds a warm partition whose
// boundaries cannot cover the target profile; the sweep must ignore it
// and still return the cold result.
func TestWarmStartIgnoresIncompatibleShape(t *testing.T) {
	target := testParams(t, model.GPT8B, 4)
	opts := MIPOptions{TimeLimit: warmTestTimeLimit}
	cold, coldStats, err := MIP(target, opts)
	if err != nil {
		t.Fatal(err)
	}

	bogus := &Partition{Stages: []Stage{{First: 0, Last: 3}}, Algorithm: AlgoMIP}
	wopts := opts
	wopts.Warm = bogus
	warm, warmStats, err := MIP(target, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.WarmStart {
		t.Errorf("incompatible warm shape was accepted as a seed")
	}
	if !reflect.DeepEqual(cold.Stages, warm.Stages) || coldStats.StepTime != warmStats.StepTime {
		t.Errorf("bogus warm hint changed the sweep result")
	}
	if math.IsInf(warmStats.StepTime, 1) {
		t.Errorf("sweep found no partition")
	}
}

// TestWarmStartDoesNotMutateSeed verifies the caller's warm partition is
// left untouched — it is typically a live cache entry.
func TestWarmStartDoesNotMutateSeed(t *testing.T) {
	neighbor := testParams(t, model.GPT8B, 4)
	opts := MIPOptions{TimeLimit: warmTestTimeLimit}
	warmSrc, _, err := MIP(neighbor, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := &Partition{Stages: append([]Stage(nil), warmSrc.Stages...), Algorithm: warmSrc.Algorithm}

	target := testParams(t, model.GPT8B, 3)
	wopts := opts
	wopts.Warm = warmSrc
	if _, _, err := MIP(target, wopts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Stages, warmSrc.Stages) || before.Algorithm != warmSrc.Algorithm {
		t.Errorf("warm start mutated the seed partition")
	}
}
