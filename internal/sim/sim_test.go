package sim

import (
	"errors"
	"math"
	"testing"
)

// taskList lists the DAG's tasks in id order.
func (s *Sim) taskList() []*Task {
	ts := make([]*Task, 0, s.NumTasks())
	for _, c := range s.taskChunks {
		for i := range c {
			ts = append(ts, &c[i])
		}
	}
	return ts
}

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestSingleCompute(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0")
	s.Compute(s.Name("c"), e, 2.5)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2.5, 1e-12, "makespan")
}

func TestComputeChain(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0")
	a := s.Compute(s.Name("a"), e, 1)
	b := s.Compute(s.Name("b"), e, 2, a)
	s.Compute(s.Name("c"), e, 3, b)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 6, 1e-12, "makespan")
}

func TestEngineSerializesIndependentTasks(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0")
	s.Compute(s.Name("a"), e, 1)
	s.Compute(s.Name("b"), e, 1)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2, 1e-12, "two tasks on one engine serialize")
}

func TestParallelEngines(t *testing.T) {
	s := New()
	e1 := s.NewEngine("gpu0")
	e2 := s.NewEngine("gpu1")
	s.Compute(s.Name("a"), e1, 5)
	s.Compute(s.Name("b"), e2, 3)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 5, 1e-12, "parallel engines overlap")
}

func TestEnginePriorityOrder(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0")
	link := s.NewResource("link", 1)
	// Block the engine so both transfers queue, then check dispatch order.
	gate := s.Compute(s.Name("gate"), e, 1)
	lo := s.Transfer(s.Name("lo"), e, s.NewPath(link), 1, 0, gate)
	hi := s.Transfer(s.Name("hi"), e, s.NewPath(link), 1, 5, gate)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !(hi.Start() < lo.Start()) {
		t.Fatalf("high priority transfer should dispatch first: hi=%g lo=%g", hi.Start(), lo.Start())
	}
}

func TestSingleTransferBandwidth(t *testing.T) {
	s := New()
	link := s.NewResource("link", 16e9)
	tr := s.Transfer(s.Name("t"), nil, s.NewPath(link), 32e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2, 1e-9, "32GB over 16GB/s")
	almost(t, tr.End()-tr.Start(), 2, 1e-9, "transfer duration")
}

func TestTransferBottleneckedByNarrowestHop(t *testing.T) {
	s := New()
	wide := s.NewResource("wide", 16e9)
	narrow := s.NewResource("narrow", 4e9)
	s.Transfer(s.Name("t"), nil, s.NewPath(wide, narrow), 8e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2, 1e-9, "8GB at 4GB/s bottleneck")
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	s.Transfer(s.Name("a"), nil, s.NewPath(rc), 10e9, 0)
	s.Transfer(s.Name("b"), nil, s.NewPath(rc), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each gets 5 GB/s: both finish at t=2.
	almost(t, end, 2, 1e-9, "fair share halves bandwidth")
}

func TestUnequalFlowsMaxMin(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	small := s.Transfer(s.Name("small"), nil, s.NewPath(rc), 5e9, 0)
	big := s.Transfer(s.Name("big"), nil, s.NewPath(rc), 15e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: both at 5 GB/s until small finishes at t=1 (5GB done each).
	// Phase 2: big alone at 10 GB/s for remaining 10GB -> 1s more.
	almost(t, small.End(), 1, 1e-9, "small flow completion")
	almost(t, big.End(), 2, 1e-9, "big flow completion")
	almost(t, end, 2, 1e-9, "makespan")
}

func TestStrictPriorityPreemptsBandwidth(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	hi := s.Transfer(s.Name("hi"), nil, s.NewPath(rc), 10e9, 1)
	lo := s.Transfer(s.Name("lo"), nil, s.NewPath(rc), 10e9, 0)
	_, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// High priority takes all 10 GB/s, finishing at t=1; low priority then
	// runs alone, finishing at t=2.
	almost(t, hi.End(), 1, 1e-9, "high priority flow")
	almost(t, lo.End(), 2, 1e-9, "low priority flow starved then runs")
}

func TestWeightedPathDoubleCrossing(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	// Staged same-root-complex GPU-to-GPU copy crosses rc twice.
	s.Transfer(s.Name("staged"), nil, s.NewPath(rc, rc), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Effective bandwidth is capacity/2 = 5 GB/s.
	almost(t, end, 2, 1e-9, "double crossing halves effective bandwidth")
}

func TestPathMergesDuplicates(t *testing.T) {
	s := New()
	r := s.NewResource("r", 1)
	p := s.PathElems(s.NewPath(r, r, nil, r))
	if len(p) != 1 || p[0].Res != r {
		t.Fatalf("want 1 merged element, got %d", len(p))
	}
	if p[0].Weight != 3 {
		t.Fatalf("want weight 3, got %g", p[0].Weight)
	}
}

func TestDisjointResourcesDoNotContend(t *testing.T) {
	s := New()
	r1 := s.NewResource("rc1", 10e9)
	r2 := s.NewResource("rc2", 10e9)
	a := s.Transfer(s.Name("a"), nil, s.NewPath(r1), 10e9, 0)
	b := s.Transfer(s.Name("b"), nil, s.NewPath(r2), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 1, 1e-9, "disjoint flows run at full speed")
	almost(t, a.End(), 1, 1e-9, "flow a")
	almost(t, b.End(), 1, 1e-9, "flow b")
}

func TestSharedMiddleHop(t *testing.T) {
	s := New()
	l1 := s.NewResource("l1", 16e9)
	l2 := s.NewResource("l2", 16e9)
	rc := s.NewResource("rc", 12e9)
	a := s.Transfer(s.Name("a"), nil, s.NewPath(l1, rc), 12e9, 0)
	b := s.Transfer(s.Name("b"), nil, s.NewPath(l2, rc), 12e9, 0)
	_, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both share rc at 6 GB/s each.
	almost(t, a.End(), 2, 1e-9, "flow a halved by shared root complex")
	almost(t, b.End(), 2, 1e-9, "flow b halved by shared root complex")
}

func TestComputeAndTransferOverlap(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0.compute")
	ce := s.NewEngine("gpu0.upload")
	link := s.NewResource("link", 10e9)
	c := s.Compute(s.Name("c"), e, 2)
	tr := s.Transfer(s.Name("t"), ce, s.NewPath(link), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2, 1e-9, "compute and DMA overlap")
	almost(t, c.End(), 2, 1e-9, "compute")
	almost(t, tr.End(), 1, 1e-9, "transfer")
}

func TestCopyEngineSerializesTransfers(t *testing.T) {
	s := New()
	ce := s.NewEngine("gpu0.upload")
	link := s.NewResource("link", 10e9)
	s.Transfer(s.Name("a"), ce, s.NewPath(link), 10e9, 0)
	s.Transfer(s.Name("b"), ce, s.NewPath(link), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Serialized on the engine: 1s + 1s, no bandwidth sharing.
	almost(t, end, 2, 1e-9, "copy engine serializes")
}

func TestMemPoolBlocksUntilFree(t *testing.T) {
	s := New()
	e := s.NewEngine("gpu0")
	pool := s.NewMemPool("mem", 10)
	a1 := s.Alloc(s.Name("a1"), pool, 8)
	c1 := s.Compute(s.Name("c1"), e, 3, a1)
	f1 := s.Free(s.Name("f1"), pool, 8, c1)
	a2 := s.Alloc(s.Name("a2"), pool, 8) // must wait for f1
	c2 := s.Compute(s.Name("c2"), e, 1, a2)
	_ = f1
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, a2.End(), 3, 1e-9, "second alloc waits for free")
	almost(t, c2.End(), 4, 1e-9, "second compute after alloc")
	almost(t, end, 4, 1e-9, "makespan")
}

func TestMemPoolFIFOOrder(t *testing.T) {
	s := New()
	pool := s.NewMemPool("mem", 10)
	hold := s.Alloc(s.Name("hold"), pool, 10)
	relTrigger := s.After(s.Name("trigger"), hold)
	// Two waiters; first asks 6, second asks 3. Strict FIFO means the 3
	// cannot jump the queue even when it would fit first.
	w1 := s.Alloc(s.Name("w1"), pool, 6, relTrigger)
	w2 := s.Alloc(s.Name("w2"), pool, 3, relTrigger)
	// Free 5 at t=1 (not enough for w1), then 5 more at t=2.
	e := s.NewEngine("clock")
	t1 := s.Compute(s.Name("t1"), e, 1)
	t2 := s.Compute(s.Name("t2"), e, 1, t1)
	s.Free(s.Name("f1"), pool, 5, t1)
	s.Free(s.Name("f2"), pool, 5, t2)
	_, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, w1.End(), 2, 1e-9, "w1 completes after second free")
	if w2.End() < w1.End() {
		t.Fatalf("FIFO violated: w2 (%g) finished before w1 (%g)", w2.End(), w1.End())
	}
}

func TestMemPoolPeak(t *testing.T) {
	s := New()
	pool := s.NewMemPool("mem", 100)
	a := s.Alloc(s.Name("a"), pool, 60)
	b := s.Alloc(s.Name("b"), pool, 30, a)
	s.Free(s.Name("fa"), pool, 60, b)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, pool.Peak(), 90, 1e-9, "peak usage")
	almost(t, pool.Used(), 30, 1e-9, "final usage")
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	pool := s.NewMemPool("mem", 10)
	s.Alloc(s.Name("too-big"), pool, 20)
	_, err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestClockStallIsStructuredError: past t ≈ 1e17 s one ulp of the clock
// (16 s) outlasts a 1 GB transfer at 16 GB/s, so the flow's predicted
// completion rounds onto the current instant and no advance finishes it.
// Run must name the instant instead of picking it forever.
func TestClockStallIsStructuredError(t *testing.T) {
	s := New()
	r := s.NewResource("link", 16e9)
	e := s.NewEngine("e")
	c := s.Compute(s.Name("c"), e, 1e17)
	s.Transfer(s.Name("t"), nil, s.NewPath(r), 1e9, 0, c)
	_, err := s.Run()
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want a *StallError, got %v", err)
	}
	if stall.At != 1e17 || stall.Task != "t" {
		t.Fatalf("stall names t=%g, task %q; want t=1e17, task \"t\"", stall.At, stall.Task)
	}
	if errs := s.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestZeroDurationComputeIsNotAStall: a zero-duration compute that
// finishes at the current instant and hands its engine to a queued
// longer one leaves the compute heap as long as it was, yet the loop
// progressed; Run must not mistake it for a stalled clock.
func TestZeroDurationComputeIsNotAStall(t *testing.T) {
	s := New()
	e := s.NewEngine("e")
	s.Compute(s.Name("c0"), e, 0)
	s.Compute(s.Name("c1"), e, 1)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 1, 0, "makespan")
}

func TestZeroByteTransferCompletes(t *testing.T) {
	s := New()
	link := s.NewResource("link", 1)
	a := s.Transfer(s.Name("zero"), nil, s.NewPath(link), 0, 0)
	b := s.Compute(s.Name("after"), s.NewEngine("e"), 1, a)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 1, 1e-9, "zero-byte transfer is instant")
	almost(t, b.Start(), 0, 1e-9, "successor starts immediately")
}

func TestEmptyPathTransferIsUnconstrained(t *testing.T) {
	s := New()
	s.Transfer(s.Name("free"), nil, NoPath, 1e12, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end > 1e-3 {
		t.Fatalf("empty-path transfer should be near-instant, took %g", end)
	}
}

func TestVirtualJoin(t *testing.T) {
	s := New()
	e1 := s.NewEngine("e1")
	e2 := s.NewEngine("e2")
	a := s.Compute(s.Name("a"), e1, 1)
	b := s.Compute(s.Name("b"), e2, 2)
	j := s.After(s.Name("join"), a, b)
	c := s.Compute(s.Name("c"), e1, 1, j)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, j.End(), 2, 1e-9, "join waits for slowest")
	almost(t, c.End(), 3, 1e-9, "post-join compute")
	almost(t, end, 3, 1e-9, "makespan")
}

func TestDependencyOnFinishedTask(t *testing.T) {
	// A nil dependency is ignored: it neither blocks the task nor gains
	// a successor.
	s := New()
	e := s.NewEngine("e")
	a := s.Compute(s.Name("a"), e, 1)
	b := s.Compute(s.Name("b"), e, 1, a, nil) // nil dep ignored
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, b.End(), 2, 1e-9, "b after a")
	almost(t, end, 2, 1e-9, "makespan")
}

// TestFinishedSeesLifecycle reads a run back from its finished tasks, and
// pins the run-once contract: a second Run is an error that leaves the
// result alone.
func TestFinishedSeesLifecycle(t *testing.T) {
	s := New()
	e := s.NewEngine("e")
	link := s.NewResource("link", 1e9)
	a := s.Compute(s.Name("a"), e, 1)
	tr := s.Transfer(s.Name("t"), nil, s.NewPath(link), 1e9, 0, a)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	fin := s.Finished()
	if len(fin) != 2 || fin[0] != a || fin[1] != tr {
		t.Fatalf("finished tasks: %v", fin)
	}
	almost(t, tr.Start(), 1, 1e-9, "transfer starts after compute")
	almost(t, tr.End(), 2, 1e-9, "transfer end")
	if again, err := s.Run(); err == nil || again != end || len(s.Finished()) != 2 {
		t.Fatalf("second Run: end %g, err %v, %d finished", again, err, len(s.Finished()))
	}
}

func TestDeterministicReplay(t *testing.T) {
	build := func() (*Sim, []*Task) {
		s := New()
		rc1 := s.NewResource("rc1", 10e9)
		rc2 := s.NewResource("rc2", 10e9)
		var tasks []*Task
		for i := 0; i < 10; i++ {
			r := rc1
			if i%2 == 1 {
				r = rc2
			}
			tasks = append(tasks, s.Transfer(s.Name("t"), nil, s.NewPath(r), float64(1+i)*1e9, i%3))
		}
		return s, tasks
	}
	s1, t1 := build()
	s2, t2 := build()
	if _, err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if t1[i].End() != t2[i].End() {
			t.Fatalf("non-deterministic completion for task %d: %g vs %g", i, t1[i].End(), t2[i].End())
		}
	}
}

func TestResourceUtilizationAccounting(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	s.Transfer(s.Name("a"), nil, s.NewPath(rc), 10e9, 0)
	s.Transfer(s.Name("b"), nil, s.NewPath(rc), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, rc.Carried(), 20e9, 1, "bytes carried")
	almost(t, rc.Utilization(end), 1, 1e-9, "fully utilized while active")
	// Weighted double-crossing counts twice.
	s2 := New()
	rc2 := s2.NewResource("rc", 10e9)
	s2.Transfer(s2.Name("staged"), nil, s2.NewPath(rc2, rc2), 5e9, 0)
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, rc2.Carried(), 10e9, 1, "double-crossing carried")
}
