package chaos

import (
	"testing"
)

// TestPlanningChaosSeeds drives seed-derived deadline scenarios through
// the planning service: a randomized request sequence with cooldown
// gaps in which a seeded subset of requests arrives already cancelled.
// Each seed asserts the conservation identities, cache validity, and a
// bitwise replay.
func TestPlanningChaosSeeds(t *testing.T) {
	h := NewPlanHarness()
	var handoffs, trips, shorted, probes uint64
	for seed := int64(1); seed <= 24; seed++ {
		rep, err := h.RunPlanning(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := rep.Stats.Metrics
		handoffs += m.Handoffs
		trips += m.BreakerTrips
		shorted += m.BreakerShorted
		probes += m.BreakerProbes
		t.Log(rep)
	}
	// Coverage: across the seed sweep the scenarios must actually have
	// exercised every rung of the ladder, or the harness is testing
	// nothing.
	if handoffs == 0 {
		t.Error("no seed led a request with a dead context")
	}
	if trips == 0 {
		t.Error("no seed tripped the circuit breaker")
	}
	if shorted == 0 {
		t.Error("no seed short-circuited a request on an open breaker")
	}
	if probes == 0 {
		t.Error("no seed half-opened the breaker with a probe")
	}
}

// TestPlanningChaosConcurrent runs the same scenarios with goroutine
// fan-out. Outcome counts are schedule-dependent, so only structural
// invariants are asserted — this is the -race surface for the
// single-flight table and breaker.
func TestPlanningChaosConcurrent(t *testing.T) {
	h := NewPlanHarness()
	for seed := int64(1); seed <= 8; seed++ {
		if err := h.RunPlanningConcurrent(seed, 8); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
