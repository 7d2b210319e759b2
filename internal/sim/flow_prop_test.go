package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fairnessScenario is a randomized set of flows over a random resource
// graph, used by the property tests below.
type fairnessScenario struct {
	caps   []float64 // resource capacities
	flows  [][]int   // resource indices per flow
	prios  []int
	weight [][]float64
}

func genScenario(r *rand.Rand) fairnessScenario {
	nRes := 1 + r.Intn(5)
	caps := make([]float64, nRes)
	for i := range caps {
		caps[i] = 1e9 * (1 + r.Float64()*15)
	}
	nFlows := 1 + r.Intn(8)
	flows := make([][]int, nFlows)
	prios := make([]int, nFlows)
	weight := make([][]float64, nFlows)
	for i := range flows {
		nHops := 1 + r.Intn(3)
		seen := map[int]bool{}
		for h := 0; h < nHops; h++ {
			ri := r.Intn(nRes)
			if seen[ri] {
				continue
			}
			seen[ri] = true
			flows[i] = append(flows[i], ri)
			weight[i] = append(weight[i], float64(1+r.Intn(2)))
		}
		prios[i] = r.Intn(3)
	}
	return fairnessScenario{caps: caps, flows: flows, prios: prios, weight: weight}
}

// weightedPath registers a path with arbitrary weights, which NewPath's
// crossing counts cannot express.
func (s *Sim) weightedPath(elems []PathElem) PathID {
	if len(elems) == 0 {
		return NoPath
	}
	s.paths = append(s.paths, elems)
	return PathID(len(s.paths))
}

// rates runs the water-filling computation on a scenario and returns the
// per-flow rates plus the resources.
func (sc fairnessScenario) rates() ([]float64, []*Resource) {
	s := New()
	res := make([]*Resource, len(sc.caps))
	for i, c := range sc.caps {
		res[i] = s.NewResource("r", c)
	}
	for i, hops := range sc.flows {
		path := make([]PathElem, 0, len(hops))
		for h, ri := range hops {
			path = append(path, PathElem{Res: res[ri], Weight: sc.weight[i][h]})
		}
		s.Transfer(s.Name("f"), nil, s.weightedPath(path), 1e12, sc.prios[i])
	}
	// Arm the flows without running to completion: seed ready queue.
	for _, t := range s.taskList() {
		if t.waiting == 0 {
			s.ready = append(s.ready, t)
		}
	}
	s.drain()
	s.recomputeRates()
	rates := make([]float64, len(s.flows))
	for i, f := range s.flows {
		rates[i] = f.rate
	}
	return rates, res
}

// TestFairnessNeverExceedsCapacity: for random flow sets, the aggregate
// weighted rate on every resource stays within capacity.
func TestFairnessNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := genScenario(r)
		rates, _ := sc.rates()
		load := make([]float64, len(sc.caps))
		for i, hops := range sc.flows {
			for h, ri := range hops {
				load[ri] += rates[i] * sc.weight[i][h]
			}
		}
		for i, l := range load {
			if l > sc.caps[i]*(1+1e-9) {
				t.Logf("seed %d: resource %d overloaded: %g > %g", seed, i, l, sc.caps[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFairnessEveryFlowBottlenecked: each flow is bottlenecked on at least
// one of its resources (its rate cannot be raised without overloading one)
// — the defining property of max-min fairness within a priority class.
func TestFairnessEveryFlowBottlenecked(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := genScenario(r)
		rates, _ := sc.rates()
		load := make([]float64, len(sc.caps))
		for i, hops := range sc.flows {
			for h, ri := range hops {
				load[ri] += rates[i] * sc.weight[i][h]
			}
		}
		for i, hops := range sc.flows {
			saturated := false
			for _, ri := range hops {
				if load[ri] >= sc.caps[ri]*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated && rates[i] < infiniteRate/2 {
				t.Logf("seed %d: flow %d has slack everywhere (rate %g)", seed, i, rates[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFairnessHigherPriorityNeverSlower: raising a flow to a higher
// priority class must not reduce its rate when everything else is equal.
func TestFairnessHigherPriorityNeverSlower(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := genScenario(r)
		if len(sc.flows) < 2 {
			return true
		}
		base, _ := sc.rates()
		boosted := sc
		boosted.prios = append([]int(nil), sc.prios...)
		boosted.prios[0] = 10
		after, _ := boosted.rates()
		return after[0] >= base[0]*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEqualFlowsGetEqualRates: identical flows in the same class receive
// identical rates.
func TestEqualFlowsGetEqualRates(t *testing.T) {
	s := New()
	rc := s.NewResource("rc", 12e9)
	for i := 0; i < 5; i++ {
		s.Transfer(s.Name("f"), nil, s.NewPath(rc), 1e12, 0)
	}
	for _, task := range s.taskList() {
		if task.waiting == 0 {
			s.ready = append(s.ready, task)
		}
	}
	s.drain()
	s.recomputeRates()
	want := 12e9 / 5.0
	for _, f := range s.flows {
		almost(t, f.rate, want, 1, "equal split")
	}
}

// TestRandomDAGsComplete: random DAGs of computes, transfers, allocs and
// frees (with balanced alloc/free pairs) always run to completion.
func TestRandomDAGsComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New()
		nEng := 1 + r.Intn(3)
		engines := make([]*Engine, nEng)
		for i := range engines {
			engines[i] = s.NewEngine("e")
		}
		res := s.NewResource("r", 1e9*(1+r.Float64()*10))
		pool := s.NewMemPool("m", 100)
		var prev *Task
		for i := 0; i < 5+r.Intn(20); i++ {
			var deps []*Task
			if prev != nil && r.Intn(2) == 0 {
				deps = append(deps, prev)
			}
			switch r.Intn(3) {
			case 0:
				prev = s.Compute(s.Name("c"), engines[r.Intn(nEng)], r.Float64(), deps...)
			case 1:
				prev = s.Transfer(s.Name("t"), nil, s.NewPath(res), r.Float64()*1e9, r.Intn(2), deps...)
			case 2:
				amt := 1 + r.Float64()*30
				a := s.Alloc(s.Name("a"), pool, amt, deps...)
				prev = s.Free(s.Name("f"), pool, amt, a)
			}
		}
		_, err := s.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
