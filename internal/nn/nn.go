// Package nn is a small, real neural-network substrate: GPT-style layers
// (embedding, transformer blocks, LM head) with hand-written backward
// passes, a cross-entropy loss and an Adam optimizer. It exists to run
// the paper's convergence experiment (Figure 13) for real: the Mobius
// pipeline's stage-swapped execution order must produce the same
// parameter updates as GPipe's, and internal/train demonstrates that on
// an actual model rather than by assertion.
package nn

import (
	"fmt"
	"math/rand"

	"mobius/internal/tensor"
)

// Param is one learnable tensor and its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Mat
	G    *tensor.Mat
}

func newParam(name string, r, c int) *Param {
	return &Param{Name: name, W: tensor.New(r, c), G: tensor.New(r, c)}
}

// initNormal fills a parameter with N(0, std) values from rng.
func (p *Param) initNormal(rng *rand.Rand, std float64) {
	for i := range p.W.D {
		p.W.D[i] = rng.NormFloat64() * std
	}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Batch is one microbatch of token sequences with next-token targets.
type Batch struct {
	Tokens  [][]int
	Targets [][]int
}

// Size returns the number of sequences in the batch.
func (b Batch) Size() int { return len(b.Tokens) }

// Unit is one vertically partitionable slice of the model: the unit of
// pipeline stages. Forward consumes the upstream boundary activation
// (nil for the embedding, which reads the batch) and returns the next
// boundary plus an opaque cache for Backward.
type Unit interface {
	Name() string
	Params() []*Param
	Forward(in *tensor.Mat, batch Batch) (out *tensor.Mat, cache any)
	Backward(dout *tensor.Mat, cache any) (din *tensor.Mat)
}

// Config describes a GPT model for the convergence substrate.
type Config struct {
	Vocab  int
	Seq    int
	Dim    int
	Heads  int
	Layers int
	Seed   int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Vocab <= 0 || c.Seq <= 0 || c.Dim <= 0 || c.Heads <= 0 || c.Layers <= 0 {
		return fmt.Errorf("nn: all dimensions must be positive: %+v", c)
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("nn: dim %d not divisible by heads %d", c.Dim, c.Heads)
	}
	return nil
}

// Model is a GPT assembled from pipeline units.
type Model struct {
	Cfg   Config
	Units []Unit
}

// NewGPT builds the unit list: embedding, Layers blocks, head. All
// parameters are initialized deterministically from cfg.Seed.
func NewGPT(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	m.Units = append(m.Units, newEmbedding(cfg, rng))
	for i := 0; i < cfg.Layers; i++ {
		m.Units = append(m.Units, newBlock(cfg, i, rng))
	}
	m.Units = append(m.Units, newHead(cfg, rng))
	return m, nil
}

// Params returns every parameter of every unit.
func (m *Model) Params() []*Param {
	var out []*Param
	for _, u := range m.Units {
		out = append(out, u.Params()...)
	}
	return out
}
