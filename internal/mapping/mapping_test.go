package mapping

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mobius/internal/hw"
)

func TestSequentialIdentity(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m, err := Sequential(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range m.Perm {
		if g != i {
			t.Fatalf("sequential perm %v", m.Perm)
		}
	}
	// Round-robin wrap.
	if m.GPUOf(5) != 1 || m.GPUOf(4) != 0 {
		t.Fatalf("GPUOf wrap: %d %d", m.GPUOf(5), m.GPUOf(4))
	}
}

func TestCrossNeverWorseThanSequential(t *testing.T) {
	topos := []*hw.Topology{
		hw.Commodity(hw.RTX3090Ti, 4),
		hw.Commodity(hw.RTX3090Ti, 2, 2),
		hw.Commodity(hw.RTX3090Ti, 1, 3),
		hw.Commodity(hw.RTX3090Ti, 4, 4),
		hw.Commodity(hw.RTX3090Ti, 2, 2, 2, 2),
	}
	for _, topo := range topos {
		for _, stages := range []int{4, 8, 12, 16} {
			seq, err := Sequential(topo, stages)
			if err != nil {
				t.Fatal(err)
			}
			cross, err := Cross(context.Background(), topo, stages)
			if err != nil {
				t.Fatal(err)
			}
			if cross.Contention > seq.Contention+1e-12 {
				t.Errorf("%s stages=%d: cross %g > sequential %g", topo.Name, stages, cross.Contention, seq.Contention)
			}
		}
	}
}

func TestCrossAlternatesRootComplexes(t *testing.T) {
	// Topo 2+2: cross mapping must put adjacent stages under different
	// root complexes (the Figure 4b illustration).
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m, err := Cross(context.Background(), topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j+1 < 8; j++ {
		a, b := m.GPUOf(j), m.GPUOf(j+1)
		if j%4 == 3 {
			continue // round boundary wraps; adjacency across rounds is
			// unavoidable on 4 GPUs when S > N
		}
		if topo.SameRootComplex(a, b) {
			t.Errorf("adjacent stages %d,%d share a root complex (gpus %d,%d, perm %v)", j, j+1, a, b, m.Perm)
		}
	}
}

func TestCrossOnSingleRootComplexIsNeutral(t *testing.T) {
	// Topo 4: every permutation has the same contention; cross must not
	// crash and must return the identity (first in enumeration order).
	topo := hw.Commodity(hw.RTX3090Ti, 4)
	seq, _ := Sequential(topo, 8)
	cross, err := Cross(context.Background(), topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cross.Contention != seq.Contention {
		t.Fatalf("contention must be permutation-invariant on Topo 4: %g vs %g", cross.Contention, seq.Contention)
	}
}

func TestContentionDegreeFormula(t *testing.T) {
	// Two GPUs under one RC, stages 0 and 1 on them: shared=2, |i-j|=1.
	topo := hw.Commodity(hw.RTX3090Ti, 2)
	got := ContentionDegree(topo, []int{0, 1}, 2)
	if got != 2 {
		t.Fatalf("contention: got %g want 2", got)
	}
	// Distance 2 halves the contribution: stages 0,1,2 on 2 GPUs:
	// pairs (0,1): 2/1, (0,2): same GPU -> same RC -> 2/2, (1,2): 2/1.
	got = ContentionDegree(topo, []int{0, 1}, 3)
	if got != 2+1+2 {
		t.Fatalf("contention: got %g want 5", got)
	}
}

func TestContentionZeroAcrossRootComplexes(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 1, 1)
	if got := ContentionDegree(topo, []int{0, 1}, 2); got != 0 {
		t.Fatalf("cross-RC contention must be 0, got %g", got)
	}
}

func TestUploadPriorityOrdering(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m, _ := Cross(context.Background(), topo, 8)
	for j := 1; j < 8; j++ {
		if m.UploadPriority(j) >= m.UploadPriority(j-1) {
			t.Fatalf("earlier stages must have higher priority: p(%d)=%d p(%d)=%d",
				j-1, m.UploadPriority(j-1), j, m.UploadPriority(j))
		}
	}
}

func TestStagesPerGPU(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	m, _ := Sequential(topo, 8)
	for g := 0; g < 4; g++ {
		st := m.Stages(g)
		if len(st) != 2 {
			t.Fatalf("gpu %d: %v", g, st)
		}
		if st[1]-st[0] != 4 {
			t.Fatalf("stages on one GPU must be N apart: %v", st)
		}
	}
}

func TestDeterminism(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 1, 3)
	a, _ := Cross(context.Background(), topo, 12)
	b, _ := Cross(context.Background(), topo, 12)
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Fatalf("non-deterministic cross mapping: %v vs %v", a.Perm, b.Perm)
		}
	}
}

func TestArgValidation(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2)
	if _, err := Cross(context.Background(), topo, 0); err == nil {
		t.Fatal("zero stages must fail")
	}
	if _, err := Sequential(nil, 4); err == nil {
		t.Fatal("nil topology must fail")
	}
}

// TestCrossOptimalByBruteForce re-verifies the search result against an
// independent brute force over permutations for random group layouts.
func TestCrossOptimalByBruteForce(t *testing.T) {
	f := func(g1Raw, g2Raw uint8, stagesRaw uint8) bool {
		g1 := int(g1Raw%3) + 1
		g2 := int(g2Raw%3) + 1
		stages := (int(stagesRaw%3) + 1) * (g1 + g2)
		topo := hw.Commodity(hw.RTX3090Ti, g1, g2)
		m, err := Cross(context.Background(), topo, stages)
		if err != nil {
			return false
		}
		// Brute force.
		n := topo.NumGPUs()
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := ContentionDegree(topo, perm, stages)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				if s := ContentionDegree(topo, perm, stages); s < best {
					best = s
				}
				return
			}
			for k := i; k < n; k++ {
				perm[i], perm[k] = perm[k], perm[i]
				rec(i + 1)
				perm[i], perm[k] = perm[k], perm[i]
			}
		}
		rec(0)
		return m.Contention <= best+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossMappingEightGPUScale(t *testing.T) {
	// The permutation search must stay fast at the maximum evaluated
	// scale: 8 GPUs (40320 permutations) and 32 stages.
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	m, err := Cross(context.Background(), topo, 32)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := Sequential(topo, 32)
	if m.Contention > seq.Contention {
		t.Fatalf("cross %g > sequential %g", m.Contention, seq.Contention)
	}
	// Every GPU must appear exactly once in the permutation.
	seen := map[int]bool{}
	for _, g := range m.Perm {
		if seen[g] {
			t.Fatalf("duplicate GPU in perm %v", m.Perm)
		}
		seen[g] = true
	}
}

// crossBranchMerge is the oracle for Cross: the search as it stood when
// the N top-level branches ran on a worker pool. Each branch is explored
// on its own, seeded with the identity score, and the branch results are
// merged in branch order with the first-strict-improvement rule.
func crossBranchMerge(topo *hw.Topology, numStages int) ([]int, float64) {
	n := topo.NumGPUs()
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	identityScore := ContentionDegree(topo, identity, numStages)
	w := pairWeights(n, numStages)
	rcOf := make([]int, n)
	szOf := make([]float64, n)
	for g := 0; g < n; g++ {
		rcOf[g] = topo.GPUs[g].RootComplex
		szOf[g] = float64(topo.GroupSize(g))
	}

	best, bestScore := identity, identityScore
	for k := 0; k < n; k++ {
		p := append([]int(nil), identity...)
		p[0], p[k] = p[k], p[0]
		found, score, perm := false, identityScore, make([]int, n)
		var dfs func(i int, cost float64)
		dfs = func(i int, cost float64) {
			if cost >= score-1e-12 {
				return
			}
			if i == n {
				found, score = true, cost
				copy(perm, p)
				return
			}
			for j := i; j < n; j++ {
				p[i], p[j] = p[j], p[i]
				dfs(i+1, cost+placementCost(p, i, w, rcOf, szOf))
				p[i], p[j] = p[j], p[i]
			}
		}
		dfs(1, placementCost(p, 0, w, rcOf, szOf))
		if found && score < bestScore-1e-12 {
			best, bestScore = perm, score
		}
	}
	return best, bestScore
}

// TestCrossMatchesBranchMerge holds the serial search to the branch-merge
// oracle: the same permutation and bitwise the same contention, including
// the first-minimum tie-break, on the named shapes and on seeded random
// group layouts of up to 8 GPUs whose stage counts need not be multiples
// of the GPU count.
func TestCrossMatchesBranchMerge(t *testing.T) {
	type tc struct {
		groups []int
		stages int
	}
	cases := []tc{{[]int{2, 2}, 8}, {[]int{1, 3}, 12}, {[]int{4, 4}, 16}, {[]int{2, 3, 3}, 24}}
	rng := rand.New(rand.NewSource(1))
	for len(cases) < 1004 {
		var groups []int
		for left := rng.Intn(8) + 1; left > 0; {
			g := rng.Intn(left) + 1
			groups = append(groups, g)
			left -= g
		}
		cases = append(cases, tc{groups, rng.Intn(40) + 1})
	}
	for _, c := range cases {
		topo := hw.Commodity(hw.RTX3090Ti, c.groups...)
		got, err := Cross(context.Background(), topo, c.stages)
		if err != nil {
			t.Fatalf("%s stages=%d: %v", topo.Name, c.stages, err)
		}
		perm, score := crossBranchMerge(topo, c.stages)
		if math.Float64bits(got.Contention) != math.Float64bits(score) || !slices.Equal(got.Perm, perm) {
			t.Fatalf("%s stages=%d: perm %v contention %v, branch merge %v contention %v",
				topo.Name, c.stages, got.Perm, got.Contention, perm, score)
		}
	}
}

// TestCrossHonoursDeadline: on Topo 6+6 (12 GPUs, 12! orders) the search
// runs for seconds unbounded; under a 50 ms deadline it must stop well
// within half a second and report the deadline. An expired context also
// stops a search too small to check it at any node (Topo 2+2).
func TestCrossHonoursDeadline(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 6, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	m, err := Cross(ctx, topo, 48)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got mapping %v, error %v; want context.DeadlineExceeded", m, err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("search returned %v after a 50ms deadline, want within 500ms", elapsed.Round(time.Millisecond))
	}
	if _, err := Cross(ctx, hw.Commodity(hw.RTX3090Ti, 2, 2), 8); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired context on Topo 2+2: error %v, want context.DeadlineExceeded", err)
	}
}
