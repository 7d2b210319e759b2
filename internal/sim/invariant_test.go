package sim

import (
	"fmt"
	"math"
)

// CheckInvariants audits a simulator after Run and returns every global
// invariant violation found. It is the backbone of the chaos harness
// (chaos_test.go): no matter what faults, corruption, or capacity
// events a spec injects, these properties must hold.
//
// Checked invariants:
//
//   - Event-time sanity: every started task has 0 ≤ ready ≤ start, every
//     finished task has start ≤ end ≤ now, and no time is NaN/Inf.
//   - Traffic conservation per resource: the bytes a resource carried
//     equal the weighted payload (including retransmitted attempts) of
//     the transfers that flowed across it. Exact (within float
//     tolerance) when the run completed; an upper bound when the run
//     halted mid-flight on a structured failure.
//
// A nil return means the run is internally consistent.
func (s *Sim) CheckInvariants() []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("sim: invariant: "+format, args...))
	}

	if !finite(s.now) || s.now < 0 {
		bad("clock is %v", s.now)
	}

	for _, t := range s.taskList() {
		switch t.state {
		case statePending:
			continue
		case stateReady, stateRunning:
			if !finite(t.readyAt) || t.readyAt < 0 {
				bad("%v readyAt=%v", t, t.readyAt)
			}
		case stateFinished:
			if !finite(t.readyAt) || !finite(t.startAt) || !finite(t.endAt) {
				bad("%v has non-finite times ready=%v start=%v end=%v", t, t.readyAt, t.startAt, t.endAt)
				continue
			}
			if t.readyAt < 0 {
				bad("%v readyAt=%v < 0", t, t.readyAt)
			}
			if t.startAt < t.readyAt-timeEpsilon {
				bad("%v started at %v before ready at %v", t, t.startAt, t.readyAt)
			}
			if t.endAt < t.startAt-timeEpsilon {
				bad("%v ended at %v before start at %v", t, t.endAt, t.startAt)
			}
			if t.endAt > s.now+timeEpsilon {
				bad("%v ended at %v after clock %v", t, t.endAt, s.now)
			}
		}
	}

	// Traffic conservation. Expected carried bytes per resource: each
	// transfer whose payload was admitted contributes weight·bytes per
	// delivery attempt that flowed (1 + retransmits). Completed runs must
	// match exactly; halted runs may have flowed only part of it.
	expected := make([]float64, len(s.resources))
	halted := s.err != nil || s.pending > 0
	for _, t := range s.taskList() {
		if t.kind != KindTransfer || !t.flowStarted || t.size <= 0 {
			continue
		}
		if t.state != stateFinished && !halted {
			bad("%v flow started but never finished in a completed run", t)
		}
		for _, pe := range s.PathOf(t) {
			expected[pe.Res.id] += pe.Weight * t.size * float64(1+int(t.retransmits))
		}
	}
	for _, r := range s.resources {
		if !finite(r.carried) || r.carried < -1e-6 {
			bad("resource %q carried %v bytes", r.name, r.carried)
			continue
		}
		want := expected[r.id]
		tol := 1e-6*want + 1024
		switch {
		case halted:
			if r.carried > want+tol {
				bad("resource %q carried %.6g bytes, more than the %.6g admitted (halted run)", r.name, r.carried, want)
			}
		case math.Abs(r.carried-want) > tol:
			bad("resource %q carried %.6g bytes, want %.6g (Δ=%.6g)", r.name, r.carried, want, r.carried-want)
		}
	}

	return errs
}

func finite(t Time) bool { return !math.IsNaN(t) && !math.IsInf(t, 0) }
