package sim

import "testing"

func TestTransferLatencyDelaysFlow(t *testing.T) {
	s := New()
	s.TransferLatency = 0.5
	link := s.NewResource("link", 1e9)
	tr := s.Transfer(s.Name("t"), nil, s.NewPath(link), 1e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 1.5, 1e-9, "latency + transfer time")
	almost(t, tr.End()-tr.Start(), 1.5, 1e-9, "task span includes setup")
}

func TestTransferLatencyOccupiesEngine(t *testing.T) {
	s := New()
	s.TransferLatency = 0.5
	ce := s.NewEngine("copy")
	link := s.NewResource("link", 1e9)
	s.Transfer(s.Name("a"), ce, s.NewPath(link), 1e9, 0)
	b := s.Transfer(s.Name("b"), ce, s.NewPath(link), 1e9, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Each transfer holds the engine for 1.5s: b starts at 1.5.
	almost(t, b.Start(), 1.5, 1e-9, "second transfer waits for setup+flow")
	almost(t, b.End(), 3.0, 1e-9, "second transfer completion")
}

func TestTransferLatencyZeroBytesIsInstant(t *testing.T) {
	s := New()
	s.TransferLatency = 0.5
	link := s.NewResource("link", 1e9)
	s.Transfer(s.Name("zero"), nil, s.NewPath(link), 0, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end > 1e-9 {
		t.Fatalf("zero-byte transfer should skip latency, took %g", end)
	}
}

func TestLatencyDoesNotConsumeBandwidth(t *testing.T) {
	// Two flows with staggered setups still share bandwidth fairly once
	// both are flowing.
	s := New()
	s.TransferLatency = 1.0
	rc := s.NewResource("rc", 10e9)
	a := s.Transfer(s.Name("a"), nil, s.NewPath(rc), 10e9, 0)
	b := s.Transfer(s.Name("b"), nil, s.NewPath(rc), 10e9, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Both set up concurrently (no engine), then share 5 GB/s each:
	// finish at 1 + 2 = 3.
	almost(t, a.End(), 3, 1e-9, "flow a")
	almost(t, b.End(), 3, 1e-9, "flow b")
}

func TestLatencyWithPriorityClasses(t *testing.T) {
	// Two flows with setup latency; the high-priority one still takes the
	// bandwidth first once both are flowing.
	s := New()
	s.TransferLatency = 0.25
	rc := s.NewResource("rc", 10e9)
	hi := s.Transfer(s.Name("hi"), nil, s.NewPath(rc), 10e9, 5)
	lo := s.Transfer(s.Name("lo"), nil, s.NewPath(rc), 10e9, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Setup ends at 0.25 for both; hi then runs alone for 1s; lo after.
	almost(t, hi.End(), 1.25, 1e-9, "high priority end")
	almost(t, lo.End(), 2.25, 1e-9, "low priority end")
}

func TestEngineAccessors(t *testing.T) {
	s := New()
	e := s.NewEngine("e")
	if e.current != nil || len(e.queue) != 0 {
		t.Fatal("fresh engine must be idle")
	}
	if e.Name() != "e" {
		t.Fatal("name")
	}
	s.Compute(s.Name("a"), e, 1)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if e.current != nil {
		t.Fatal("engine busy after run")
	}
}

func TestTaskAccessors(t *testing.T) {
	s := New()
	e := s.NewEngine("e")
	link := s.NewResource("l", 1e9)
	c := s.Compute(s.Name("c"), e, 1)
	tr := s.Transfer(s.Name("t"), e, s.NewPath(link), 5e8, 3, c)
	if tr.Kind() != KindTransfer || tr.Bytes() != 5e8 || tr.priority != 3 || s.engineOf(tr) != e {
		t.Fatal("transfer accessors")
	}
	if c.Kind() != KindCompute || c.Duration() != 1 {
		t.Fatal("compute accessors")
	}
	if len(s.PathOf(tr)) != 1 || c.Bytes() != 0 || tr.Duration() != 0 {
		t.Fatal("path accessor")
	}
	if tr.Finished() {
		t.Fatal("not yet run")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !tr.Finished() || tr.ID() == c.ID() {
		t.Fatal("post-run state")
	}
	if c.String() == "" || KindAlloc.String() != "alloc" || TaskKind(99).String() == "" {
		t.Fatal("strings")
	}
}
