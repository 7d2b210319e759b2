package cluster

import (
	"container/heap"
	"errors"
	"math/rand"
	"testing"

	"mobius/internal/model"
	"mobius/internal/plansvc"
)

// oracleQueue is the fleet's former event queue, kept as the reference:
// every event, arrivals included, boxed in one container/heap ordered by
// (at, seq), with the arrivals pushed first.
type oracleQueue []*event

func (h oracleQueue) Len() int { return len(h) }
func (h oracleQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleQueue) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleQueue) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *oracleQueue) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestClusterEventQueueMatchesHeap replays seeded push/pop scripts
// through the cursor-plus-heap queue and through the heap of every
// event, and requires the same pop sequence. Times are drawn from a
// coarse grid so arrivals tie with each other, pushed events tie with
// each other, and the two kinds tie across the merge.
func TestClusterEventQueueMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grid := 1 + rng.Intn(12)
		nArr := rng.Intn(40)
		jobs := make([]job, nArr)
		at := 0.0
		for i := range jobs {
			if rng.Intn(3) > 0 {
				at += float64(rng.Intn(2))
			}
			jobs[i] = job{id: i, arrival: at}
		}

		q := eventQueue{arrivals: jobs}
		var o oracleQueue
		var seq uint64
		for i := range jobs {
			heap.Push(&o, &event{at: jobs[i].arrival, seq: seq, kind: evArrival, job: &jobs[i]})
			seq++
		}
		push := func(now float64, tag int) {
			e := event{at: now + float64(rng.Intn(grid)), kind: evComplete, srv: tag}
			q.push(e)
			e.seq = seq
			seq++
			heap.Push(&o, &e)
		}
		now, tag := 0.0, 0
		for ; tag < 3; tag++ { // faults and restarts, pushed before the loop
			push(now, tag)
		}
		for step := 0; ; step++ {
			got, ok := q.pop()
			if ok != (o.Len() > 0) {
				t.Fatalf("seed %d step %d: queue ok=%v with %d oracle events left", seed, step, ok, o.Len())
			}
			if !ok {
				break
			}
			want := heap.Pop(&o).(*event)
			if got.at != want.at || got.kind != want.kind || got.job != want.job || got.srv != want.srv {
				t.Fatalf("seed %d step %d: popped {at %g kind %d job %p srv %d}, oracle {at %g kind %d job %p srv %d}",
					seed, step, got.at, got.kind, got.job, got.srv, want.at, want.kind, want.job, want.srv)
			}
			now = got.at
			for n := rng.Intn(3); n > 0 && tag < 400; n-- {
				push(now, tag)
				tag++
			}
		}
	}
}

// TestClusterUnkeyableClassFailsUpFront: a class whose planning options
// cannot be keyed fails the run with its KeyOf error before any event —
// here the class is so sparse that none of its jobs arrives, so a
// failure raised at first dispatch would never surface.
func TestClusterUnkeyableClassFailsUpFront(t *testing.T) {
	bad := cheapClass("bad", 1, model.GPT3B, 1e-9)
	bad.Model.Layers = 0
	cfg := baseConfig(cheapClass("prod", 0, model.GPT3B, 0.05), bad)
	_, want := plansvc.KeyOf(classOptions(cfg, 1))
	if want == nil {
		t.Fatal("an invalid model was keyed")
	}
	rep, err := Run(cfg)
	if err == nil {
		t.Fatalf("run with an unkeyable class succeeded: %d jobs submitted", rep.Submitted)
	}
	if u := errors.Unwrap(err); u == nil || u.Error() != want.Error() {
		t.Errorf("run failed with %q, want the KeyOf error %q", err, want)
	}
}
