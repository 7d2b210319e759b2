package sim

import (
	"errors"
	"testing"
)

// TestChecksumCostAddsLatency checks the detection price: with checksums
// on and no corruption injected, every transfer pays
// DefaultChecksumCostPerByte of setup latency exactly once.
func TestChecksumCostAddsLatency(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	s.Checksums = ChecksumConfig{Enabled: true}
	s.Transfer(s.Name("t"), nil, s.NewPath(link), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 1+0.4, 1e-9, "1s payload plus 0.4s checksum at 25 GB/s")
	almost(t, s.Integrity().ChecksumCost, 0.4, 1e-12, "checksum cost accounted")
}

// TestDetectedCorruptionRetransmits checks the detect-and-retransmit
// path: one corrupted first attempt re-flows the payload (real link
// traffic), waits the 1ms backoff, and re-pays the checksum.
func TestDetectedCorruptionRetransmits(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	s.Checksums = ChecksumConfig{Enabled: true}
	s.CorruptionPolicy = func(task *Task, attempt int) bool { return attempt == 0 }
	tr := s.Transfer(s.Name("t"), nil, s.NewPath(link), 10e9, 0)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Payload flows twice (2s), plus two checksum passes (0.8s) and the
	// 1ms backoff before the retransmit.
	almost(t, end, 2+0.8+0.001, 1e-9, "retransmitted payload")
	if int(tr.retransmits) != 1 {
		t.Fatalf("retransmits: got %d, want 1", int(tr.retransmits))
	}
	if tr.tainted {
		t.Fatal("detected corruption must not taint")
	}
	st := s.Integrity()
	if st.CorruptedAttempts != 1 || st.Retransmits != 1 || st.SilentCorruptions != 0 {
		t.Fatalf("integrity stats wrong: %+v", st)
	}
	almost(t, float64(link.Carried()), 20e9, 1, "retransmit consumed link bandwidth")
	if errs := s.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated: %v", errs)
	}
}

// TestExhaustedRetransmitBudgetIsStructuredError checks that a transfer
// whose every delivery attempt is corrupted halts the run with a
// *CorruptionError naming the task after its two retransmits.
func TestExhaustedRetransmitBudgetIsStructuredError(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	s.Checksums = ChecksumConfig{Enabled: true}
	s.CorruptionPolicy = func(*Task, int) bool { return true }
	s.Transfer(s.Name("grad-flush"), nil, s.NewPath(link), 10e9, 0)
	_, err := s.Run()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptionError, got %v", err)
	}
	if ce.Task != "grad-flush" || ce.Attempts != 3 {
		t.Fatalf("corruption-error fields wrong: %+v", ce)
	}
	if ce.At <= 0 {
		t.Fatalf("detection instant not set: %+v", ce)
	}
	if errs := s.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated on halted run: %v", errs)
	}
}

// TestSilentCorruptionTaintsDownstream checks the checksums-off exposure
// path: the run completes, but the corrupted transfer and everything
// depending on it are tainted.
func TestSilentCorruptionTaintsDownstream(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	e := s.NewEngine("gpu0")
	s.CorruptionPolicy = func(task *Task, attempt int) bool { return s.TaskName(task) == "up" }
	up := s.Transfer(s.Name("up"), nil, s.NewPath(link), 10e9, 0)
	fwd := s.Compute(s.Name("fwd"), e, 1, up)
	down := s.Transfer(s.Name("down"), nil, s.NewPath(link), 10e9, 0, fwd)
	clean := s.Compute(s.Name("unrelated"), e, 1)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 3, 1e-9, "silent corruption costs no extra time")
	for _, tk := range []*Task{up, fwd, down} {
		if !tk.tainted {
			t.Fatalf("%v should be tainted", tk)
		}
	}
	if clean.tainted {
		t.Fatal("independent task must stay clean")
	}
	st := s.Integrity()
	if st.SilentCorruptions != 1 || st.TaintedTasks != 3 || st.Retransmits != 0 {
		t.Fatalf("integrity stats wrong: %+v", st)
	}
	if errs := s.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated: %v", errs)
	}
}

// TestCorruptionPolicySkipsZeroByteTransfers mirrors the retry-policy
// guarantee: control-flow edges are never corrupted.
func TestCorruptionPolicySkipsZeroByteTransfers(t *testing.T) {
	s := New()
	link := s.NewResource("link", 10e9)
	called := false
	s.CorruptionPolicy = func(*Task, int) bool { called = true; return true }
	s.Transfer(s.Name("ctl"), nil, s.NewPath(link), 0, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("corruption policy consulted for a zero-byte transfer")
	}
}

// TestCorruptionDeterministicReplay re-runs an identical corrupted DAG
// and requires bit-identical times and integrity stats.
func TestCorruptionDeterministicReplay(t *testing.T) {
	build := func() *Sim {
		s := New()
		link := s.NewResource("link", 8e9)
		s.Checksums = ChecksumConfig{Enabled: true}
		s.CorruptionPolicy = func(task *Task, attempt int) bool {
			return (task.ID()+attempt)%3 == 0
		}
		prev := (*Task)(nil)
		for i := 0; i < 5; i++ {
			prev = s.Transfer(s.Name("t"), nil, s.NewPath(link), 4e9, 0, prev)
		}
		return s
	}
	s1, s2 := build(), build()
	end1, err1 := s1.Run()
	end2, err2 := s2.Run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatal(err1, err2)
	}
	if end1 != end2 || s1.Integrity() != s2.Integrity() {
		t.Fatalf("corrupted replay diverged: %v vs %v (%+v vs %+v)", end1, end2, s1.Integrity(), s2.Integrity())
	}
}
