package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestFailureHaltsInFlightFlow schedules a link death mid-transfer: Run
// must stop at the onset with a ResourceLostError naming the transfer.
func TestFailureHaltsInFlightFlow(t *testing.T) {
	s := New()
	link := s.NewResource("link", 100)
	s.Transfer(s.Name("xfer"), nil, s.NewPath(link), 1000, 0) // would take 10s
	s.ScheduleFailure(4, "link", []*Resource{link}, nil)

	end, err := s.Run()
	var lost *ResourceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want ResourceLostError, got %v", err)
	}
	if lost.Resource != "link" || lost.At != 4 || end != 4 {
		t.Fatalf("loss: %+v end=%g", lost, end)
	}
	if len(lost.Victims) != 1 || lost.Victims[0] != "xfer" {
		t.Fatalf("victims: %v", lost.Victims)
	}
	if !strings.Contains(lost.Error(), `resource "link" lost at t=4`) {
		t.Fatalf("message: %s", lost.Error())
	}
}

// TestFailureHaltsEngineOccupant kills an engine mid-compute; the current
// occupant is the victim even though no flow crosses a dead resource.
func TestFailureHaltsEngineOccupant(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0.compute")
	s.Compute(s.Name("fwd"), e, 10)
	s.ScheduleFailure(3, "gpu0", nil, []*Engine{e})

	_, err := s.Run()
	var lost *ResourceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want ResourceLostError, got %v", err)
	}
	if len(lost.Victims) != 1 || lost.Victims[0] != "fwd" {
		t.Fatalf("victims: %v", lost.Victims)
	}
}

// TestFailureAfterMakespanNeverFires models a fault landing in a later
// step: the DAG completes normally and the event is simply never reached.
func TestFailureAfterMakespanNeverFires(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0.compute")
	s.Compute(s.Name("fwd"), e, 2)
	s.ScheduleFailure(100, "gpu0", nil, []*Engine{e})

	end, err := s.Run()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if end != 2 {
		t.Fatalf("makespan: %g", end)
	}
}

// TestFailureSameInstantCompletionWins pins the detection ordering: a task
// finishing exactly at the onset completes before the loss is detected, so
// it is not a victim.
func TestFailureSameInstantCompletionWins(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0.compute")
	a := s.Compute(s.Name("done-at-onset"), e, 3)
	s.Compute(s.Name("starts-at-onset"), e, 5, a)
	s.ScheduleFailure(3, "gpu0", nil, []*Engine{e})

	_, err := s.Run()
	var lost *ResourceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want ResourceLostError, got %v", err)
	}
	if !a.Finished() {
		t.Fatalf("task at onset should have completed")
	}
	for _, v := range lost.Victims {
		if v == "done-at-onset" {
			t.Fatalf("completed task listed as victim: %v", lost.Victims)
		}
	}
}

// TestFailureDeduplicatesVictims runs a transfer that both occupies an
// engine and flows over the dying link; it must be reported once.
func TestFailureDeduplicatesVictims(t *testing.T) {
	s := New()
	link := s.NewResource("link", 100)
	e := s.NewEngine("gpu0.upload")
	s.Transfer(s.Name("xfer"), e, s.NewPath(link), 1000, 0)
	s.ScheduleFailure(4, "gpu0", []*Resource{link}, []*Engine{e})

	_, err := s.Run()
	var lost *ResourceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("want ResourceLostError, got %v", err)
	}
	if len(lost.Victims) != 1 {
		t.Fatalf("victims not deduplicated: %v", lost.Victims)
	}
}
