package cluster

import (
	"os"
	"testing"
)

// fleetRunAllocCeiling bounds the allocations of one benchmark-shaped
// fleet run (benchFleet, in-memory plan caches, a cold step cache).
// Measured at 2,226 allocs/run on linux/amd64, go1.24, after the
// simulator began water-filling every active flow in one pass, plus
// about 3% slack; 2,270 before that, 2,345 before each server resolved
// a route once into a path id, 3,105 before simulator tasks stopped
// carrying names, boxed tags and pointers, and 15,042 before each class
// was keyed once per run and arrivals left the event heap. Most that remain are the step pricing's core.Run simulations.
// Allocation counts do not depend on machine speed, so the gate holds on
// any machine.
const fleetRunAllocCeiling = 2293

// TestFleetAllocCeiling is the fleet gate of `make check-perf`: one
// benchmark-shaped cluster.Run must stay under its allocation ceiling.
func TestFleetAllocCeiling(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_PERF") == "" {
		t.Skip("set MOBIUS_CHECK_PERF=1 (or run `make check-perf`) to run the performance smoke gate")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(benchFleet(16, "", NewStepCache())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bench fleet run: %.0f allocs (ceiling %d)", allocs, fleetRunAllocCeiling)
	if allocs > fleetRunAllocCeiling {
		t.Errorf("bench fleet run allocates %.0f times, over its ceiling of %d", allocs, fleetRunAllocCeiling)
	}
}
