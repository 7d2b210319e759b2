package sim

import (
	"errors"
	"testing"
)

// TestScheduledCapacityDegradationSplitsTransfer checks a mid-flight
// capacity drop: the flow runs at the nominal rate until the event, then
// at the degraded rate.
func TestScheduledCapacityDegradationSplitsTransfer(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	s.Transfer(s.Name("t"), nil, s.NewPath(link), 20e9, 0)
	// 10 GB move in the first second; the remaining 10 GB crawl at 5 GB/s.
	s.ScheduleCapacity(link, 1, 5e9)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 3, 1e-9, "degraded second phase")
}

// TestCapacityWindowRestores checks a bounded degradation window
// [1s, 2s): the restore event brings the flow back to full rate.
func TestCapacityWindowRestores(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	s.Transfer(s.Name("t"), nil, s.NewPath(link), 30e9, 0)
	s.ScheduleCapacity(link, 1, 2e9)
	s.ScheduleCapacity(link, 2, 10e9)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 10 GB before the window, 2 GB inside it, 18 GB at 10 GB/s after.
	almost(t, end, 1+1+1.8, 1e-9, "window restore")
}

// TestCapacityEventBeforeFlowStart checks that a degradation scheduled
// at t=0 applies from the first byte.
func TestCapacityEventBeforeFlowStart(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	s.Transfer(s.Name("t"), nil, s.NewPath(link), 10e9, 0)
	s.ScheduleCapacity(link, 0, 2.5e9)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 4, 1e-9, "quarter bandwidth from t=0")
}

// TestOversizedAllocIsStructuredOOM checks that an allocation larger than
// the pool's total capacity surfaces as *OOMError naming the task, not a
// deadlock.
func TestOversizedAllocIsStructuredOOM(t *testing.T) {
	s := New()
	pool := s.NewMemPool("gpu0.mem", 10)
	s.Alloc(s.Name("activations"), pool, 20)
	_, err := s.Run()
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *OOMError, got %v", err)
	}
	if oom.Pool != "gpu0.mem" || oom.Task != "activations" || oom.Need != 20 || oom.Capacity != 10 {
		t.Fatalf("OOM fields wrong: %+v", oom)
	}
}

// TestShrunkenPoolTriggersOOM: an allocation that can never fit a small
// pool is a structured OOM even while an earlier allocation that fit is
// still held, not a wait for that allocation's free.
func TestShrunkenPoolTriggersOOM(t *testing.T) {
	s := New()
	pool := s.NewMemPool("dram", 30)
	weights := s.Alloc(s.Name("weights"), pool, 20)
	s.Alloc(s.Name("states"), pool, 50, weights)
	_, err := s.Run()
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *OOMError, got %v", err)
	}
	if oom.Task != "states" || oom.Need != 50 || oom.Capacity != 30 {
		t.Fatalf("OOM fields wrong: %+v", oom)
	}
}

// TestOverFreeIsStructuredAccountError checks that freeing more than is
// allocated returns *MemAccountError naming the offending task.
func TestOverFreeIsStructuredAccountError(t *testing.T) {
	s := New()
	pool := s.NewMemPool("dram", 100)
	a := s.Alloc(s.Name("a"), pool, 10)
	s.Free(s.Name("double-free"), pool, 25, a)
	_, err := s.Run()
	var acc *MemAccountError
	if !errors.As(err, &acc) {
		t.Fatalf("want *MemAccountError, got %v", err)
	}
	if acc.Task != "double-free" || acc.Pool != "dram" {
		t.Fatalf("account-error fields wrong: %+v", acc)
	}
}

// TestCapacityEventsDeterministic re-runs an identical DAG with faults
// twice and requires bit-identical completion times.
func TestCapacityEventsDeterministic(t *testing.T) {
	build := func() (*Sim, *Task, *Task) {
		s := New()
		link := s.NewResource("link", 8e9)
		e := s.NewEngine("gpu0")
		s.ScheduleCapacity(link, 0.5, 2e9)
		s.ScheduleCapacity(link, 1.5, 8e9)
		c := s.Compute(s.Name("c"), e, 1)
		tr := s.Transfer(s.Name("t"), nil, s.NewPath(link), 12e9, 0, c)
		return s, c, tr
	}
	s1, c1, t1 := build()
	s2, c2, t2 := build()
	end1, err1 := s1.Run()
	end2, err2 := s2.Run()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if end1 != end2 || c1.End() != c2.End() || t1.End() != t2.End() {
		t.Fatalf("faulted replay diverged: %v vs %v", end1, end2)
	}
}
