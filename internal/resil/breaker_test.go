package resil

import (
	"math"
	"testing"
)

// TestBreakerTransitions runs the transition table on the fleet's
// virtual float seconds, opening the breaker at an instant where
// now-openedAt == Cooldown is exact: once early in a run, and once
// ~1e9 s out, where one ulp of the clock is about 1e-7 s and the
// instant one ulp short of the cooldown must still be rejected.
func TestBreakerTransitions(t *testing.T) {
	t.Run("seconds", func(t *testing.T) { testBreaker(t, 30, 2.5) })
	t.Run("late-seconds", func(t *testing.T) { testBreaker(t, 30, 1e9+0.25) })
}

// testBreaker drives one Breaker through every transition. The breaker
// trips at t0; prev steps the clock back by its resolution.
func testBreaker(t *testing.T, cooldown, t0 float64) {
	prev := func(x float64) float64 { return math.Nextafter(x, 0) }
	const threshold = 3
	b := &Breaker{Threshold: threshold, Cooldown: cooldown}
	allow := func(now float64, wantOK, wantProbe bool, wantState string) {
		t.Helper()
		ok, probe := b.Allow(now)
		if ok != wantOK || probe != wantProbe || b.State() != wantState {
			t.Fatalf("Allow(%v) = %v, %v in %s; want %v, %v in %s", now, ok, probe, b.State(), wantOK, wantProbe, wantState)
		}
	}
	// routable checks Routable's verdict and that asking changed nothing.
	routable := func(now float64, want bool) {
		t.Helper()
		before := *b
		if got := b.Routable(now); got != want {
			t.Fatalf("Routable(%v) in %s = %v, want %v", now, b.State(), got, want)
		}
		if *b != before {
			t.Fatalf("Routable(%v) mutated the breaker: %+v -> %+v", now, before, *b)
		}
	}
	failure := func(now float64, wantTrip bool, wantState string) {
		t.Helper()
		if got := b.Failure(now); got != wantTrip || b.State() != wantState {
			t.Fatalf("Failure(%v) = %v in %s, want %v in %s", now, got, b.State(), wantTrip, wantState)
		}
	}

	// Closed: a success mid-count resets it, so threshold-1 failures on
	// either side of it do not trip.
	allow(0, true, false, "closed")
	routable(0, true)
	for i := 0; i < threshold-1; i++ {
		failure(0, false, "closed")
	}
	b.Success()
	for i := 0; i < threshold-1; i++ {
		failure(0, false, "closed")
	}
	// Closed -> open at exactly Threshold consecutive failures.
	failure(t0, true, "open")

	// Open rejects until now-openedAt == Cooldown; Routable agrees and
	// leaves it open.
	for _, now := range []float64{t0, t0 + cooldown/2, prev(t0 + cooldown)} {
		routable(now, false)
		allow(now, false, false, "open")
	}
	routable(t0+cooldown, true)
	if b.State() != "open" {
		t.Fatalf("Routable past cooldown left %s, want open", b.State())
	}
	// At the boundary exactly the probe is admitted; a second caller is
	// rejected while it is out, however late.
	allow(t0+cooldown, true, true, "half-open")
	routable(t0+cooldown, false)
	allow(t0+cooldown, false, false, "half-open")
	allow(t0+2*cooldown, false, false, "half-open")

	// A failed probe reopens with a fresh openedAt: a full cooldown after
	// the first opening no longer admits, only one after the reopening.
	t1 := t0 + cooldown + cooldown/4
	failure(t1, true, "open")
	allow(t0+2*cooldown, false, false, "open")
	allow(prev(t1+cooldown), false, false, "open")
	routable(t1+cooldown, true)
	allow(t1+cooldown, true, true, "half-open")

	// A successful probe closes the breaker and resets the count: it
	// takes Threshold fresh failures to trip again.
	b.Success()
	allow(t1+cooldown, true, false, "closed")
	for i := 0; i < threshold-1; i++ {
		failure(t1+cooldown, false, "closed")
	}
	failure(t1+cooldown, true, "open")
}
