package nn

import (
	"math"
	"math/rand"
	"testing"

	"mobius/internal/tensor"
)

func tinyCfg() Config {
	return Config{Vocab: 11, Seq: 5, Dim: 8, Heads: 2, Layers: 2, Seed: 42}
}

func randomBatch(cfg Config, seqs int, seed int64) Batch {
	rng := rand.New(rand.NewSource(seed))
	b := Batch{}
	for s := 0; s < seqs; s++ {
		toks := make([]int, cfg.Seq)
		tgts := make([]int, cfg.Seq)
		for t := range toks {
			toks[t] = rng.Intn(cfg.Vocab)
			tgts[t] = rng.Intn(cfg.Vocab)
		}
		b.Tokens = append(b.Tokens, toks)
		b.Targets = append(b.Targets, tgts)
	}
	return b
}

// lossOf runs a full forward pass and returns the cross-entropy.
func lossOf(m *Model, batch Batch) float64 {
	var x *tensor.Mat
	for _, u := range m.Units {
		x, _ = u.Forward(x, batch)
	}
	loss, _ := CrossEntropy(x, batch, m.Cfg.Seq)
	return loss
}

// backwardAll runs forward + backward, accumulating gradients.
func backwardAll(m *Model, batch Batch) float64 {
	var x *tensor.Mat
	caches := make([]any, len(m.Units))
	for i, u := range m.Units {
		x, caches[i] = u.Forward(x, batch)
	}
	loss, dx := CrossEntropy(x, batch, m.Cfg.Seq)
	for i := len(m.Units) - 1; i >= 0; i-- {
		dx = m.Units[i].Backward(dx, caches[i])
	}
	return loss
}

func TestModelConstruction(t *testing.T) {
	m, err := NewGPT(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Units) != tinyCfg().Layers+2 {
		t.Fatalf("units: %d", len(m.Units))
	}
	if m.Units[0].Name() != "embedding" || m.Units[len(m.Units)-1].Name() != "head" {
		t.Fatal("unit ordering")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := tinyCfg()
	bad.Heads = 3
	if _, err := NewGPT(bad); err == nil {
		t.Fatal("indivisible heads must fail")
	}
	bad2 := tinyCfg()
	bad2.Vocab = 0
	if _, err := NewGPT(bad2); err == nil {
		t.Fatal("zero vocab must fail")
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	cfg := tinyCfg()
	m1, _ := NewGPT(cfg)
	m2, _ := NewGPT(cfg)
	batch := randomBatch(cfg, 3, 7)
	l1 := lossOf(m1, batch)
	l2 := lossOf(m2, batch)
	if l1 != l2 {
		t.Fatalf("same seed must give identical loss: %g vs %g", l1, l2)
	}
	// A fresh random model's loss should be near ln(vocab).
	if math.Abs(l1-math.Log(float64(cfg.Vocab))) > 0.5 {
		t.Fatalf("initial loss %g far from ln(V)=%g", l1, math.Log(float64(cfg.Vocab)))
	}
}

// TestGradientsMatchFiniteDifferences is the keystone check: analytic
// backward of every layer type against central finite differences on a
// sample of parameters.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	cfg := tinyCfg()
	m, _ := NewGPT(cfg)
	batch := randomBatch(cfg, 2, 3)

	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	backwardAll(m, batch)

	rng := rand.New(rand.NewSource(99))
	const h = 1e-6
	checked := 0
	for _, p := range m.Params() {
		// Sample a few entries per parameter.
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(p.W.D))
			orig := p.W.D[i]
			p.W.D[i] = orig + h
			lp := lossOf(m, batch)
			p.W.D[i] = orig - h
			lm := lossOf(m, batch)
			p.W.D[i] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := p.G.D[i]
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if math.Abs(numeric-analytic)/scale > 1e-4 {
				t.Errorf("%s[%d]: analytic %.8g vs numeric %.8g", p.Name, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
	t.Logf("checked %d parameter entries", checked)
}

func TestCausalMaskRespected(t *testing.T) {
	// Changing a future token must not change earlier positions' logits.
	cfg := tinyCfg()
	m, _ := NewGPT(cfg)
	batch := randomBatch(cfg, 1, 5)

	run := func() *tensor.Mat {
		var x *tensor.Mat
		for _, u := range m.Units {
			x, _ = u.Forward(x, batch)
		}
		return x
	}
	before := run().Clone()
	batch.Tokens[0][cfg.Seq-1] = (batch.Tokens[0][cfg.Seq-1] + 1) % cfg.Vocab
	after := run()
	for t2 := 0; t2 < cfg.Seq-1; t2++ {
		br, ar := before.Row(t2), after.Row(t2)
		for j := range br {
			if br[j] != ar[j] {
				t.Fatalf("position %d affected by future token", t2)
			}
		}
	}
	// The final position must change.
	changed := false
	last := cfg.Seq - 1
	for j, v := range before.Row(last) {
		if v != after.Row(last)[j] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("final position insensitive to its own token")
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	// Uniform logits -> loss = ln(V) and gradient rows sum to 0.
	cfg := tinyCfg()
	batch := randomBatch(cfg, 2, 1)
	logits := tensor.New(2*cfg.Seq, cfg.Vocab)
	loss, dl := CrossEntropy(logits, batch, cfg.Seq)
	if math.Abs(loss-math.Log(float64(cfg.Vocab))) > 1e-12 {
		t.Fatalf("uniform loss %g", loss)
	}
	for i := 0; i < dl.R; i++ {
		var sum float64
		for _, v := range dl.Row(i) {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("gradient row %d sums to %g", i, sum)
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	cfg := tinyCfg()
	m, _ := NewGPT(cfg)
	batch := randomBatch(cfg, 4, 11)
	opt := NewAdam(1e-2)

	first := lossOf(m, batch)
	var last float64
	for step := 0; step < 30; step++ {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		last = backwardAll(m, batch)
		opt.Step(m.Params())
	}
	if last >= first*0.7 {
		t.Fatalf("loss did not drop: %g -> %g", first, last)
	}
}

func TestGradAccumulationLinearity(t *testing.T) {
	// Backward on two microbatches accumulated must equal the sum of the
	// separate gradients (the property pipeline accumulation relies on).
	cfg := tinyCfg()
	b1 := randomBatch(cfg, 2, 21)
	b2 := randomBatch(cfg, 2, 22)

	m1, _ := NewGPT(cfg)
	backwardAll(m1, b1)
	backwardAll(m1, b2) // accumulates

	m2, _ := NewGPT(cfg)
	backwardAll(m2, b1)
	g1 := snapshotGrads(m2)
	for _, p := range m2.Params() {
		p.ZeroGrad()
	}
	backwardAll(m2, b2)

	i := 0
	for _, p := range m2.Params() {
		for k, g := range p.G.D {
			want := g1[i] + g
			got := m1.Params()[paramIndex(m1, p.Name)].G.D[k]
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s[%d]: accumulated %g vs sum %g", p.Name, k, got, want)
			}
			i++
		}
	}
}

func snapshotGrads(m *Model) []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.G.D...)
	}
	return out
}

func paramIndex(m *Model, name string) int {
	for i, p := range m.Params() {
		if p.Name == name {
			return i
		}
	}
	return -1
}
