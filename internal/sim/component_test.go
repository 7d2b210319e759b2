package sim

import (
	"math"
	"math/rand"

	"testing"
)

// admitForTest arms all dependency-free tasks and drains the cascade so
// their flows are active, mirroring what Run's seeding does.
func admitForTest(s *Sim) {
	s.begin()
	for _, t := range s.tasks {
		if t.state == statePending && t.waiting == 0 {
			s.ready = append(s.ready, t)
		}
	}
	s.drain()
}

func TestComponentsDisjointResourcesStaySeparate(t *testing.T) {
	s := New()
	r1 := s.NewResource("r1", 1e9)
	r2 := s.NewResource("r2", 1e9)
	s.Transfer("a", nil, Path(r1), 1e9, 0)
	s.Transfer("b", nil, Path(r2), 1e9, 0)
	admitForTest(s)
	if s.findRoot(r1) == s.findRoot(r2) {
		t.Fatal("flows on disjoint resources must be in separate components")
	}
	ca, cb := s.findRoot(r1).comp, s.findRoot(r2).comp
	if ca == nil || cb == nil || len(ca.flows) != 1 || len(cb.flows) != 1 {
		t.Fatalf("each component should hold exactly its own flow: %+v %+v", ca, cb)
	}
}

func TestComponentsBridgeFlowMerges(t *testing.T) {
	s := New()
	r1 := s.NewResource("r1", 1e9)
	r2 := s.NewResource("r2", 1e9)
	s.Transfer("a", nil, Path(r1), 1e9, 0)
	s.Transfer("b", nil, Path(r2), 1e9, 0)
	s.Transfer("bridge", nil, Path(r1, r2), 1e9, 0)
	admitForTest(s)
	root := s.findRoot(r1)
	if root != s.findRoot(r2) {
		t.Fatal("bridge flow must union the two resource groups")
	}
	if root.comp == nil || len(root.comp.flows) != 3 {
		t.Fatalf("merged component must hold all three flows, got %+v", root.comp)
	}
	// Every flow's compIdx must agree with its slot after the merge.
	for i, f := range root.comp.flows {
		if f.compIdx != i {
			t.Fatalf("flow %d carries compIdx %d at slot %d", f.task.id, f.compIdx, i)
		}
	}
}

func TestComponentsRebuildSplitsAfterBridgeFinishes(t *testing.T) {
	s := New()
	r1 := s.NewResource("r1", 10e9)
	r2 := s.NewResource("r2", 10e9)
	// Long-lived flows on each side, short bridge that merges them.
	s.Transfer("a", nil, Path(r1), 100e9, 0)
	s.Transfer("b", nil, Path(r2), 100e9, 0)
	s.Transfer("bridge", nil, Path(r1, r2), 1e6, 0)
	admitForTest(s)
	s.recomputeRates()
	if s.findRoot(r1) != s.findRoot(r2) {
		t.Fatal("expected merged component while bridge is active")
	}
	// Force the rebuild (normally amortized over finishes).
	s.rebuildComponent(s.findRoot(r1).comp)
	if s.findRoot(r1) != s.findRoot(r2) {
		t.Fatal("bridge still active: rebuild must keep the merge")
	}
	// Finish the bridge via the simulator and rebuild: split recovered.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.flows) != 0 {
		t.Fatalf("all flows should have completed, %d active", len(s.flows))
	}
}

// TestComponentRecomputeIsLocal pins the perf contract the incremental
// scheduler exists for: an event in one component must not re-waterfill
// flows in another. We detect recomputation through the nextRate scratch,
// which waterFill overwrites for every flow it touches.
func TestComponentRecomputeIsLocal(t *testing.T) {
	s := New()
	r1 := s.NewResource("r1", 10e9)
	r2 := s.NewResource("r2", 10e9)
	s.Transfer("a", nil, Path(r1), 100e9, 0)
	s.Transfer("b", nil, Path(r2), 100e9, 0)
	admitForTest(s)
	s.recomputeRates()

	fa, fb := s.flows[0], s.flows[1]
	// Poison the scratch: a recompute of that flow would overwrite it.
	fa.nextRate = -1
	fb.nextRate = -1
	// Perturb only r2's component.
	s.Transfer("b2", nil, Path(r2), 1e9, 0)
	admitForTest(s)
	s.recomputeRates()
	if fa.nextRate != -1 {
		t.Fatal("admitting a flow on r2 recomputed the r1 component")
	}
	if fb.nextRate == -1 {
		t.Fatal("r2 component was not recomputed after admission")
	}
	almost(t, fb.rate, 5e9, 1, "r2 flows split capacity")
	almost(t, fa.rate, 10e9, 1, "r1 flow keeps full capacity")
}

func TestCapacityEventDirtiesOnlyItsComponent(t *testing.T) {
	s := New()
	r1 := s.NewResource("r1", 10e9)
	r2 := s.NewResource("r2", 10e9)
	s.Transfer("a", nil, Path(r1), 100e9, 0)
	s.Transfer("b", nil, Path(r2), 100e9, 0)
	admitForTest(s)
	s.recomputeRates()
	fa, fb := s.flows[0], s.flows[1]
	fa.nextRate = -1
	fb.nextRate = -1

	r2.capacity = 5e9
	s.touchResource(r2)
	s.recomputeRates()
	if fa.nextRate != -1 {
		t.Fatal("capacity change on r2 recomputed the r1 component")
	}
	almost(t, fb.rate, 5e9, 1, "r2 flow tracks new capacity")
	almost(t, fa.rate, 10e9, 1, "r1 flow untouched")
}

func TestFlowHeapOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := New()
	var h flowHeap
	var flows []*flow
	for i := 0; i < 200; i++ {
		f := &flow{task: &Task{id: i}, heapIdx: -1}
		f.pred = Time(r.Float64() * 100)
		if i%17 == 0 {
			f.pred = math.Inf(1) // starved flows sink to the bottom
		}
		flows = append(flows, f)
		h.push(f)
	}
	_ = s
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
	s.Transfer("t", nil, Path(rc), 20e9, 0)
	prev := s.Compute("c0", e, 0.3)
	for i := 0; i < 4; i++ {
		prev = s.Compute("c", e, 0.3, prev)
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
		prev = s.Transfer("t", nil, Path(rc), 1e9, 0, prev)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.flowPool) == 0 {
		t.Fatal("flow pool empty after chained transfers; structs are not recycled")
	}
}
