package chaos

import (
	"testing"
)

// TestClusterChaosMatrix sweeps seeds through the cluster harness:
// each derives a fleet scenario (2-4 servers, 2-3 tenant classes with
// Poisson arrivals, token budgets, deadlines, degrade patience, up to
// two server losses and up to two bounces), runs it with the paranoid
// per-event audit, checks conservation / fairness / failure-accounting
// invariants, and replays it bitwise.
func TestClusterChaosMatrix(t *testing.T) {
	h := NewClusterHarness()
	h.StoreScratch = t.TempDir()
	sawFaults, sawRelands, sawRejections := false, false, false
	sawRestarts, sawWarmRestart := false, false
	sawRetries, sawTrips := false, false
	for seed := int64(1); seed <= 24; seed++ {
		rep, err := h.RunCluster(seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(rep)
		if rep.Report.ServerFailures > 0 {
			sawFaults = true
		}
		if rep.Report.ServerRestarts > 0 {
			sawRestarts = true
			if h.ClusterScenario(seed).Prewarm {
				sawWarmRestart = true
			}
		}
		if rep.Report.Rejected > 0 {
			sawRejections = true
		}
		if rep.Report.DispatchRetries > 0 {
			sawRetries = true
		}
		if rep.Report.BreakerTrips > 0 {
			sawTrips = true
		}
		for _, c := range rep.Report.Classes {
			if c.Relands > 0 {
				sawRelands = true
			}
		}
	}
	// The matrix must actually exercise the interesting paths; a sweep
	// of quiet scenarios proves nothing.
	if !sawFaults {
		t.Error("no seed produced a server failure; widen the scenario space")
	}
	if !sawRelands {
		t.Error("no seed re-landed a job after a server loss; widen the scenario space")
	}
	if !sawRejections {
		t.Error("no seed rejected a job; widen the scenario space")
	}
	if !sawRestarts {
		t.Error("no seed bounced a server; widen the scenario space")
	}
	if !sawWarmRestart {
		t.Error("no seed bounced a prewarmed server, so the fleet zero-solve-through-restart identity went untested")
	}
	if !sawRetries {
		t.Error("no seed retried a dispatch into a dead-but-undetected server; widen the scenario space")
	}
	if !sawTrips {
		t.Error("no seed tripped a dispatch breaker; widen the scenario space")
	}
}

// TestClusterChaosConcurrent runs a block of seeds in parallel against
// one shared StepCache — the data-race surface for the pricing layer
// under `go test -race`. Each seed still checks its own invariants and
// bitwise replay, so a cache corruption shows up as a divergence even
// without the race detector.
func TestClusterChaosConcurrent(t *testing.T) {
	h := NewClusterHarness()
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(100 + i)
	}
	if err := h.RunClusterConcurrent(seeds, 4); err != nil {
		t.Fatal(err)
	}
}
