package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleFinished is the reference for Finished: every finished task of
// the DAG, in one global sort by (end time, task id).
func oracleFinished(s *Sim) []*Task {
	var out []*Task
	for _, t := range s.taskList() {
		if t.state == stateFinished {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.endAt != b.endAt {
			return a.endAt < b.endAt
		}
		return a.id < b.id
	})
	return out
}

// checkFinished runs s and requires Finished to list exactly the finished
// tasks, in the oracle's global (end time, task id) order. It returns the
// number of finished tasks.
func checkFinished(t *testing.T, label string, s *Sim) int {
	t.Helper()
	s.Run()
	got, want := s.Finished(), oracleFinished(s)
	if len(got) != len(want) {
		t.Fatalf("%s: Finished lists %d tasks, %d finished", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Finished[%d] is %v at t=%g, the global sort has %v at t=%g",
				label, i, got[i], got[i].endAt, want[i], want[i].endAt)
		}
	}
	return len(got)
}

// addWork appends n random tasks to s, each depending on up to two
// earlier tasks. Durations and sizes are small multiples of round
// numbers, so many tasks finish at exactly the same time.
func addWork(r *rand.Rand, s *Sim, res []*Resource, engs []*Engine, n int) {
	for i := 0; i < n; i++ {
		var deps []*Task
		for k := r.Intn(3); k > 0 && s.NumTasks() > 0; k-- {
			deps = append(deps, s.task(int32(r.Intn(s.NumTasks()))))
		}
		name := s.Name(fmt.Sprintf("w%d", s.NumTasks()))
		switch r.Intn(3) {
		case 0:
			s.Compute(name, engs[r.Intn(len(engs))], Time(r.Intn(4))*1e-3, deps...)
		case 1:
			s.Transfer(name, nil, s.NewPath(res[r.Intn(len(res))]), float64(1+r.Intn(4))*1e6, r.Intn(2), deps...)
		default:
			s.After(name, deps...)
		}
	}
}

// workSim returns an empty simulator with the resources and engines
// addWork draws from.
func workSim() (*Sim, []*Resource, []*Engine) {
	s := New()
	res := []*Resource{s.NewResource("r0", 1e9), s.NewResource("r1", 2e9), s.NewResource("r2", 1e9)}
	engs := []*Engine{s.NewEngine("e0"), s.NewEngine("e1")}
	return s, res, engs
}

// TestDispatchMatchesGlobalSort holds Finished — the order the trace
// recorder receives a run's tasks in — which sorts only each run of equal
// end times, to one global sort by (end time, task id): on every
// differential chaos topology, and on runs whose first tasks were
// drained through the event loop before Run.
func TestDispatchMatchesGlobalSort(t *testing.T) {
	t.Run("chaos", func(t *testing.T) {
		total := 0
		for _, b := range diffScenarios {
			for seed := int64(1); seed <= 64; seed++ {
				s := New()
				b.build(rand.New(rand.NewSource(seed)), s)
				total += checkFinished(t, fmt.Sprintf("%s seed %d", b.name, seed), s)
			}
		}
		if total == 0 {
			t.Fatal("no task finished")
		}
	})
	t.Run("drained-before-run", func(t *testing.T) {
		for seed := int64(1); seed <= 32; seed++ {
			r := rand.New(rand.NewSource(seed))
			s, res, engs := workSim()
			addWork(r, s, res, engs, 80)
			admitForTest(s)
			checkFinished(t, fmt.Sprintf("work seed %d", seed), s)
		}
		for _, b := range diffScenarios {
			for seed := int64(1); seed <= 16; seed++ {
				s := New()
				b.build(rand.New(rand.NewSource(seed)), s)
				admitForTest(s)
				checkFinished(t, fmt.Sprintf("%s seed %d", b.name, seed), s)
			}
		}
	})
}

// TestSortFinishedMatchesGlobalSort drives sortFinished directly with
// clock-ordered completion lists full of equal end times, held to the
// global sort.
func TestSortFinishedMatchesGlobalSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		tasks := make([]Task, n)
		got := make([]*Task, n)
		for i := range tasks {
			tasks[i].id = int32(i)
			tasks[i].endAt = Time(r.Intn(8)) * 0.25
			got[i] = &tasks[i]
		}
		// Completion order: clock order, ids scrambled within a time.
		r.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
		slices.SortStableFunc(got, func(a, b *Task) int { return cmp.Compare(a.endAt, b.endAt) })
		want := slices.Clone(got)
		sort.Slice(want, func(i, j int) bool {
			if want[i].endAt != want[j].endAt {
				return want[i].endAt < want[j].endAt
			}
			return want[i].id < want[j].id
		})
		sortFinished(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortFinished disagrees with the global sort", trial)
		}
	}
}
