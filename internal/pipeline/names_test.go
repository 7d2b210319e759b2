package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
)

// TestNamerMatchesSprintf holds the strconv formatter to the fmt.Sprintf
// formats the schedulers used before, reusing one buffer throughout.
func TestNamerMatchesSprintf(t *testing.T) {
	var n Namer
	r := rand.New(rand.NewSource(3))
	ints := []int{0, 1, 9, 10, 99, 100, 12345, -1, -42}
	for i := 0; i < 2000; i++ {
		j, k, l := ints[r.Intn(len(ints))], r.Intn(1<<20)-1<<10, r.Intn(64)
		if got, want := n.Name("allocPreF", j, ".rest"), fmt.Sprintf("allocPreF%d.rest", j); got != want {
			t.Fatalf("Name: %q, want %q", got, want)
		}
		if got, want := n.Name("gf", k, ""), fmt.Sprintf("gf%d", k); got != want {
			t.Fatalf("Name: %q, want %q", got, want)
		}
		if got, want := n.Name2("F", j, ".g", k), fmt.Sprintf("F%d.g%d", j, k); got != want {
			t.Fatalf("Name2: %q, want %q", got, want)
		}
		if got, want := n.Name2("A", k, ".", l), fmt.Sprintf("A%d.%d", k, l); got != want {
			t.Fatalf("Name2: %q, want %q", got, want)
		}
		if got, want := n.Name3("RS", l, ".g", j, "-", k), fmt.Sprintf("RS%d.g%d-%d", l, j, k); got != want {
			t.Fatalf("Name3: %q, want %q", got, want)
		}
	}
	// A returned name must not alias the reused buffer.
	a := n.Name2("F", 1, ".", 2)
	n.Name2("B", 3, ".", 4)
	if a != "F1.2" {
		t.Fatalf("earlier name changed to %q", a)
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
