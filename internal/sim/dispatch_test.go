package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleSortEvents is the reference order of observer notifications: one
// global sort of the whole buffer by (time, task id, start-before-
// finish), the comparator dispatchEvents used before it sorted only the
// runs of equal time.
func oracleSortEvents(evs []obsEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.task.id != b.task.id {
			return a.task.id < b.task.id
		}
		return !a.finish && b.finish
	})
}

func timelineOf(evs []obsEvent) []timelineEvent {
	out := make([]timelineEvent, len(evs))
	for i, ev := range evs {
		kind := "start"
		if ev.finish {
			kind = "finish"
		}
		out[i] = timelineEvent{ev.task.id, kind, math.Float64bits(ev.at)}
	}
	return out
}

// checkDispatch executes s, requires the raw notification buffer to be
// in clock order, dispatches it, and requires the observed sequence —
// task id, time bits, start or finish — to equal the oracle's global
// sort of the same buffer. It returns the number of notifications.
func checkDispatch(t *testing.T, label string, s *Sim, obs *timelineObserver) int {
	t.Helper()
	obs.events = obs.events[:0]
	s.execute()
	raw := slices.Clone(s.events)
	for i := 1; i < len(raw); i++ {
		if !(raw[i-1].at <= raw[i].at) {
			t.Fatalf("%s: buffered notification %d at t=%g follows t=%g: the buffer is not in clock order",
				label, i, raw[i].at, raw[i-1].at)
		}
	}
	s.dispatchEvents()
	want := slices.Clone(raw)
	oracleSortEvents(want)
	wantTL := timelineOf(want)
	if len(obs.events) != len(wantTL) {
		t.Fatalf("%s: observed %d notifications, buffered %d", label, len(obs.events), len(wantTL))
	}
	for i := range wantTL {
		if obs.events[i] != wantTL[i] {
			t.Fatalf("%s: notification %d is %+v, oracle order has %+v", label, i, obs.events[i], wantTL[i])
		}
	}
	return len(raw)
}

// addWork appends n random tasks to s, each depending on up to two
// earlier tasks. Durations and sizes are small multiples of round
// numbers, so many tasks start and finish at exactly the same time.
func addWork(r *rand.Rand, s *Sim, res []*Resource, engs []*Engine, n int) {
	for i := 0; i < n; i++ {
		var deps []*Task
		for k := r.Intn(3); k > 0 && len(s.tasks) > 0; k-- {
			deps = append(deps, s.tasks[r.Intn(len(s.tasks))])
		}
		name := fmt.Sprintf("w%d", len(s.tasks))
		switch r.Intn(3) {
		case 0:
			s.Compute(name, engs[r.Intn(len(engs))], Time(r.Intn(4))*1e-3, deps...)
		case 1:
			s.Transfer(name, nil, Path(res[r.Intn(len(res))]), float64(1+r.Intn(4))*1e6, r.Intn(2), deps...)
		default:
			s.After(name, deps...)
		}
	}
}

func workSim(r *rand.Rand) (*Sim, *timelineObserver, []*Resource, []*Engine) {
	s := New()
	obs := &timelineObserver{}
	s.Observe(obs)
	res := []*Resource{s.NewResource("r0", 1e9), s.NewResource("r1", 2e9), s.NewResource("r2", 1e9)}
	engs := []*Engine{s.NewEngine("e0"), s.NewEngine("e1")}
	return s, obs, res, engs
}

// TestDispatchMatchesGlobalSort holds the equal-time-run dispatch to the
// global sort it replaced, on every differential chaos topology under
// both scheduler modes, on runs continued after adding tasks, and on
// runs whose first tasks were drained through begin before Run.
func TestDispatchMatchesGlobalSort(t *testing.T) {
	builders := []struct {
		name  string
		build func(*rand.Rand, *Sim)
	}{
		{"shared", diffScenario},
		{"isolated", diffScenarioIsolated},
		{"skewed", diffScenarioSkewed},
	}
	t.Run("chaos", func(t *testing.T) {
		total := 0
		for _, b := range builders {
			for seed := int64(1); seed <= 64; seed++ {
				for _, oracle := range []bool{false, true} {
					s := New()
					s.rateOracle = oracle
					obs := &timelineObserver{}
					s.Observe(obs)
					b.build(rand.New(rand.NewSource(seed)), s)
					total += checkDispatch(t, fmt.Sprintf("%s seed %d oracle=%v", b.name, seed, oracle), s, obs)
				}
			}
		}
		if total == 0 {
			t.Fatal("no notifications dispatched")
		}
	})
	t.Run("continued", func(t *testing.T) {
		for seed := int64(1); seed <= 32; seed++ {
			r := rand.New(rand.NewSource(seed))
			s, obs, res, engs := workSim(r)
			for round := 0; round < 3; round++ {
				addWork(r, s, res, engs, 40)
				n := checkDispatch(t, fmt.Sprintf("seed %d round %d", seed, round), s, obs)
				if n == 0 {
					t.Fatalf("seed %d round %d: the continued run dispatched nothing", seed, round)
				}
			}
		}
	})
	t.Run("drained-before-run", func(t *testing.T) {
		for seed := int64(1); seed <= 32; seed++ {
			r := rand.New(rand.NewSource(seed))
			s, obs, res, engs := workSim(r)
			addWork(r, s, res, engs, 80)
			admitForTest(s)
			checkDispatch(t, fmt.Sprintf("work seed %d", seed), s, obs)
		}
		for _, b := range builders {
			for seed := int64(1); seed <= 16; seed++ {
				s := New()
				obs := &timelineObserver{}
				s.Observe(obs)
				b.build(rand.New(rand.NewSource(seed)), s)
				admitForTest(s)
				checkDispatch(t, fmt.Sprintf("%s seed %d", b.name, seed), s, obs)
			}
		}
	})
}

// TestSortEventsMatchesGlobalSort drives sortEvents directly with
// buffers full of equal times: in clock order (the sorted-runs path) and
// shuffled (the checked full-sort fallback), both held to the oracle.
func TestSortEventsMatchesGlobalSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		tasks := make([]Task, n)
		var evs []obsEvent
		for i := range tasks {
			tasks[i].id = r.Intn(n) * 2 // repeated ids with distinct times
			start := Time(r.Intn(8)) * 0.25
			evs = append(evs, obsEvent{task: &tasks[i], at: start})
			if r.Intn(4) != 0 {
				evs = append(evs, obsEvent{task: &tasks[i], at: start + Time(r.Intn(3))*0.25, finish: true})
			}
		}
		// Distinct keys, as the simulator guarantees: drop repeats.
		type key struct {
			id     int
			at     Time
			finish bool
		}
		seen := map[key]bool{}
		evs = slices.DeleteFunc(evs, func(e obsEvent) bool {
			k := key{e.task.id, e.at, e.finish}
			dup := seen[k]
			seen[k] = true
			return dup
		})
		for _, shuffled := range []bool{false, true} {
			got := slices.Clone(evs)
			if shuffled {
				r.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
			} else {
				slices.SortStableFunc(got, func(a, b obsEvent) int { return cmp.Compare(a.at, b.at) })
			}
			want := slices.Clone(got)
			oracleSortEvents(want)
			sortEvents(got)
			if !slices.Equal(timelineOf(got), timelineOf(want)) {
				t.Fatalf("trial %d shuffled=%v: sortEvents disagrees with the global sort", trial, shuffled)
			}
		}
	}
}
