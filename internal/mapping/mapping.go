// Package mapping implements Mobius' stage-to-GPU mapping (§3.3): the
// PCIe-topology-aware cross mapping that minimizes communication
// contention at shared CPU root complexes, and the sequential mapping
// baseline of the Figure 10 ablation.
//
// A mapping is a permutation of the GPUs applied round-robin: stage j
// (0-based) runs on Perm[j mod N], so stages j and j+N always share a GPU
// as the Mobius pipeline requires. Cross mapping searches all
// permutations for the one minimizing the paper's contention degree
//
//	contention(i, j) = shared(i, j) / |i - j|        (Eq. 12)
//
// summed over all stage pairs (Eq. 13), where shared(i, j) is the number
// of GPUs under the root complex both stages' GPUs hang off (zero when
// they use different root complexes).
package mapping

import (
	"context"
	"fmt"

	"mobius/internal/hw"
)

// Scheme names.
const (
	SchemeSequential = "sequential"
	SchemeCross      = "cross"
)

// Mapping assigns pipeline stages to GPUs round-robin through Perm.
type Mapping struct {
	// Perm is the GPU visit order within each round of stages.
	Perm []int
	// NumStages is the pipeline stage count the mapping was scored for.
	NumStages int
	// Scheme records how the mapping was constructed.
	Scheme string
	// Contention is the scheme's contention degree (Eq. 13).
	Contention float64
}

// GPUOf returns the GPU executing stage (0-based).
func (m *Mapping) GPUOf(stage int) int { return m.Perm[stage%len(m.Perm)] }

// UploadPriority returns the DMA priority for prefetching a stage's data:
// stages that execute earlier get strictly higher priority, implementing
// the paper's cudaStreamCreateWithPriority policy for concurrent
// prefetches under one root complex.
func (m *Mapping) UploadPriority(stage int) int { return m.NumStages - stage }

// Stages returns the stage indices mapped to the given GPU, ascending.
func (m *Mapping) Stages(gpu int) []int {
	var out []int
	for j := 0; j < m.NumStages; j++ {
		if m.GPUOf(j) == gpu {
			out = append(out, j)
		}
	}
	return out
}

func (m *Mapping) String() string {
	return fmt.Sprintf("%s mapping perm=%v contention=%.3f", m.Scheme, m.Perm, m.Contention)
}

// ContentionDegree evaluates Eq. 13 for a GPU permutation on a topology.
func ContentionDegree(topo *hw.Topology, perm []int, numStages int) float64 {
	n := len(perm)
	var total float64
	for i := 0; i < numStages; i++ {
		gi := perm[i%n]
		for j := i + 1; j < numStages; j++ {
			gj := perm[j%n]
			if topo.SameRootComplex(gi, gj) {
				total += float64(topo.GroupSize(gi)) / float64(j-i)
			}
		}
	}
	return total
}

// Sequential maps stages to GPUs in id order, ignoring the PCIe topology
// — the baseline the paper ablates against in §4.4.
func Sequential(topo *hw.Topology, numStages int) (*Mapping, error) {
	if err := checkArgs(topo, numStages); err != nil {
		return nil, err
	}
	perm := make([]int, topo.NumGPUs())
	for i := range perm {
		perm[i] = i
	}
	return &Mapping{
		Perm:       perm,
		NumStages:  numStages,
		Scheme:     SchemeSequential,
		Contention: ContentionDegree(topo, perm, numStages),
	}, nil
}

// pollLeft is the smallest number of positions a child subtree must
// still have to fill for the search to check the context before entering
// it. On 8 GPUs that is at most 65 checks in all, and the work between
// two checks is one subtree of at most 6! = 720 leaves, so a deadline
// stops the search promptly without a check in the hot inner nodes.
const pollLeft = 6

// Cross returns the permutation with minimal contention degree. Ties keep
// the first minimum in enumeration order, starting from the identity, so
// the result is deterministic. When ctx expires mid-search, Cross returns
// ctx.Err() and no mapping.
//
// The search is one depth-first branch and bound over partial
// permutations rather than a brute-force scan of all N! orders: filling
// position k adds only the contention of stage pairs whose positions are
// both decided, and since every pair contributes a nonnegative term, the
// accumulated prefix contention is a lower bound on every completion of
// the prefix. A branch whose prefix cost cannot beat the incumbent (within
// the float tie tolerance) is pruned whole. The incumbent starts at the
// identity's score and is carried across all N top-level branches, which
// are visited in the brute-force enumeration's swap order.
func Cross(ctx context.Context, topo *hw.Topology, numStages int) (*Mapping, error) {
	if err := checkArgs(topo, numStages); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := topo.NumGPUs()
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	best := append([]int(nil), p...)
	bestScore := ContentionDegree(topo, p, numStages)

	w := pairWeights(n, numStages)
	rcOf := make([]int, n)
	szOf := make([]float64, n)
	for g := 0; g < n; g++ {
		rcOf[g] = topo.GPUs[g].RootComplex
		szOf[g] = float64(topo.GroupSize(g))
	}

	var err error
	var dfs func(i int, cost float64)
	dfs = func(i int, cost float64) {
		if cost >= bestScore-1e-12 {
			return // lower bound cannot beat the incumbent
		}
		if i == n {
			bestScore = cost
			copy(best, p)
			return
		}
		poll := n-i-1 >= pollLeft
		for j := i; j < n; j++ {
			if poll {
				if err = ctx.Err(); err != nil {
					return
				}
			}
			p[i], p[j] = p[j], p[i]
			dfs(i+1, cost+placementCost(p, i, w, rcOf, szOf))
			p[i], p[j] = p[j], p[i]
			if err != nil {
				return
			}
		}
	}
	dfs(0, 0)
	if err != nil {
		return nil, err
	}
	return &Mapping{
		Perm:       best,
		NumStages:  numStages,
		Scheme:     SchemeCross,
		Contention: bestScore,
	}, nil
}

// placementCost returns the contention added by deciding position i of
// the permutation: the Eq. 13 terms of all stage pairs whose two
// positions are now both fixed (including same-position pairs, i.e.
// stages N apart on one GPU).
func placementCost(p []int, i int, w [][]float64, rcOf []int, szOf []float64) float64 {
	g := p[i]
	var c float64
	for a := 0; a <= i; a++ {
		if rcOf[p[a]] == rcOf[g] {
			c += szOf[g] * w[a][i]
		}
	}
	return c
}

// pairWeights precomputes, for every unordered pair of permutation
// positions (a, b), the sum of 1/|i-j| over the stage pairs i < j with
// {i mod N, j mod N} == {a, b}. Contention for a concrete GPU assignment
// is then shared(ga, gb) * w[a][b], with shared constant per root-complex
// group.
func pairWeights(n, numStages int) [][]float64 {
	w := make([][]float64, n)
	for a := range w {
		w[a] = make([]float64, n)
	}
	for i := 0; i < numStages; i++ {
		for j := i + 1; j < numStages; j++ {
			a, b := i%n, j%n
			if a > b {
				a, b = b, a
			}
			w[a][b] += 1 / float64(j-i)
		}
	}
	return w
}

func checkArgs(topo *hw.Topology, numStages int) error {
	if topo == nil || topo.NumGPUs() == 0 {
		return fmt.Errorf("mapping: empty topology")
	}
	if numStages <= 0 {
		return fmt.Errorf("mapping: numStages must be positive, got %d", numStages)
	}
	return nil
}
