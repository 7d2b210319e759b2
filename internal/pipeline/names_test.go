package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
)

// sprintfMobiusNames lists, in creation order, the task names
// BuildMobius emitted when it formatted each one with fmt.Sprintf: the
// reference the simulator's name recipes must reproduce (the names appear
// in deadlock, OOM and corruption errors).
func sprintfMobiusNames(cfg MobiusConfig, N int) []string {
	stg := cfg.Partition.Stages
	S, M := len(stg), cfg.Microbatches
	var names []string
	add := func(format string, args ...any) { names = append(names, fmt.Sprintf(format, args...)) }
	for j := 0; j < S; j++ {
		if j < N {
			add("allocF%d", j)
			add("C%d", j)
		} else {
			add("allocPreF%d", j)
			add("C%d.pre", j)
			add("allocRestF%d", j)
			add("C%d.rest", j)
			add("readyF%d", j)
		}
		for m := 0; m < M; m++ {
			if j > 0 {
				add("A%d.%d", j, m)
			}
			add("F%d.%d", j, m)
			if stg[j].ActOutBytes > 0 {
				add("O%d.%d", j, m)
			}
		}
		if j < S-N {
			add("freeF%d", j)
		}
	}
	for j := S - 1; j >= 0; j-- {
		if j >= S-N {
			add("gradAllocB%d", j)
		} else {
			add("allocPreB%d", j)
			add("CB%d.pre", j)
			add("allocRestB%d", j)
			add("CB%d.rest", j)
			add("readyB%d", j)
		}
		for m := 0; m < M; m++ {
			if j < S-1 {
				add("G%d.%d", j, m)
			}
			if j > 0 && stg[j].ActInBytes > 0 && stg[j-1].ActOutBytes > 0 {
				add("AU%d.%d", j, m)
			}
			add("B%d.%d", j, m)
		}
		add("GF%d", j)
		add("freeB%d", j)
		if cfg.Checkpoint != nil {
			add("CK%d", j)
		}
	}
	return names
}

// TestMobiusNamesMatchSprintf runs a checkpointed Mobius step with more
// stages than GPUs (so the prefetch pre/rest pairs appear) and requires
// every task name, in creation order, to equal the fmt.Sprintf format.
func TestMobiusNamesMatchSprintf(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	cfg := planMobius(t, model.GPT8B, topo, mapping.SchemeCross, 8)
	cfg.Checkpoint = &CheckpointWrite{Bytes: 1e9}
	res, err := runMobius(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Server.Sim
	want := sprintfMobiusNames(cfg, topo.NumGPUs())
	if s.NumTasks() != len(want) || len(s.Finished()) != len(want) {
		t.Fatalf("%d tasks (%d finished), Sprintf reference has %d", s.NumTasks(), len(s.Finished()), len(want))
	}
	for _, task := range s.Finished() {
		if got := s.TaskName(task); got != want[task.ID()] {
			t.Fatalf("task %d is named %q, Sprintf gives %q", task.ID(), got, want[task.ID()])
		}
	}
}

// TestMobiusBadRouteSurfaces pins that a schedule routing to a tier the
// topology lacks fails through srv.RouteErr instead of simulating an
// empty path as an infinitely fast transfer.
func TestMobiusBadRouteSurfaces(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	cfg := planMobius(t, model.GPT3B, topo, mapping.SchemeSequential, 4)
	cfg.Checkpoint = &CheckpointWrite{Bytes: 1e9, ToSSD: true}
	_, err := runMobius(topo, cfg)
	if err == nil || !strings.Contains(err.Error(), "no SSD tier") {
		t.Fatalf("checkpoint to a missing SSD tier: err = %v", err)
	}
}
