package sim

import (
	"math"
	"math/rand"
	"testing"
)

// admitForTest arms all dependency-free tasks and drains the cascade so
// their flows are active, mirroring what Run's seeding does.
func admitForTest(s *Sim) {
	for _, t := range s.taskList() {
		if t.state == statePending && t.waiting == 0 {
			s.ready = append(s.ready, t)
		}
	}
	s.drain()
}

func TestFlowHeapOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h flowHeap
	var flows []*flow
	for i := 0; i < 200; i++ {
		f := &flow{task: &Task{id: int32(i)}, heapIdx: -1}
		f.pred = Time(r.Float64() * 100)
		if i%17 == 0 {
			f.pred = math.Inf(1) // starved flows sink to the bottom
		}
		flows = append(flows, f)
		h.push(f)
	}
	// Random re-keys with fix, and random removals.
	for i := 0; i < 100; i++ {
		f := flows[r.Intn(len(flows))]
		if f.heapIdx < 0 {
			continue
		}
		if r.Intn(3) == 0 {
			h.remove(f)
			continue
		}
		f.pred = Time(r.Float64() * 100)
		h.fix(f)
	}
	// Drain: predictions must come out non-decreasing, ties by id.
	var last *flow
	for h.Len() > 0 {
		f := h.popTop()
		if f.heapIdx != -1 {
			t.Fatal("popped flow retains heap index")
		}
		if last != nil {
			if f.pred < last.pred {
				t.Fatalf("heap order violated: %g after %g", f.pred, last.pred)
			}
			if f.pred == last.pred && f.task.id < last.task.id {
				t.Fatalf("tie-break violated: id %d after %d", f.task.id, last.task.id)
			}
		}
		last = f
	}
}

// TestLazySettlementExactness: a flow whose rate never changes is settled
// exactly once; its carried accounting must still equal payload bytes.
func TestLazySettlementExactness(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	e := s.NewEngine("e")
	// Computes create events that previously swept every flow; the flow
	// itself runs at a constant rate through all of them.
	s.Transfer(s.Name("t"), nil, s.NewPath(rc), 20e9, 0)
	prev := s.Compute(s.Name("c0"), e, 0.3)
	for i := 0; i < 4; i++ {
		prev = s.Compute(s.Name("c"), e, 0.3, prev)
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, end, 2, 1e-9, "makespan")
	almost(t, rc.Carried(), 20e9, 1, "carried settles exactly despite lazy progress")
	if errs := s.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestFlowStructPooling: finished flows' structs are recycled into later
// admissions instead of burning the allocator.
func TestFlowStructPooling(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 10e9)
	var prev *Task
	for i := 0; i < 6; i++ {
		prev = s.Transfer(s.Name("t"), nil, s.NewPath(rc), 1e9, 0, prev)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.flowPool) == 0 {
		t.Fatal("flow pool empty after chained transfers; structs are not recycled")
	}
}
