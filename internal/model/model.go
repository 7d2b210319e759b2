// Package model provides the analytic cost model for GPT-like transformer
// models: per-layer parameter counts, mixed-precision memory footprints,
// activation sizes, and FLOP counts. These are exactly the per-layer
// quantities the Mobius MIP partition algorithm consumes (Table 2 of the
// paper), and the workloads of Table 3.
package model

import (
	"fmt"
	"math"
	"math/bits"

	"mobius/internal/hw"
)

// LayerKind distinguishes the three layer shapes of a GPT model.
type LayerKind int

// Layer kinds.
const (
	// KindEmbedding is the token + position embedding.
	KindEmbedding LayerKind = iota
	// KindBlock is one transformer block (attention + MLP + layernorms).
	KindBlock
	// KindHead is the final layernorm + untied LM head projection.
	KindHead
)

func (k LayerKind) String() string {
	switch k {
	case KindEmbedding:
		return "embedding"
	case KindBlock:
		return "block"
	case KindHead:
		return "head"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// Config describes a GPT-like model and its training microbatch, matching
// the columns of Table 3.
type Config struct {
	Name string
	// Layers is the number of transformer blocks.
	Layers int
	// Hidden is the model dimension.
	Hidden int
	// Heads is the number of attention heads.
	Heads int
	// VocabSize is the tokenizer vocabulary size.
	VocabSize int
	// SeqLen is the training sequence length (512 in the paper).
	SeqLen int
	// MicrobatchSize is the per-microbatch sample count.
	MicrobatchSize int
}

// Table 3 model configurations. Parameter counts are derived from the
// architecture (12·h²·L for blocks plus untied embedding/head); the names
// follow the paper's labels.
var (
	// GPT3B: 64 layers, hidden 2048, 32 heads, microbatch 2.
	GPT3B = Config{Name: "3B", Layers: 64, Hidden: 2048, Heads: 32, VocabSize: 50257, SeqLen: 512, MicrobatchSize: 2}
	// GPT8B: 40 layers, hidden 4096, 32 heads, microbatch 2.
	GPT8B = Config{Name: "8B", Layers: 40, Hidden: 4096, Heads: 32, VocabSize: 50257, SeqLen: 512, MicrobatchSize: 2}
	// GPT15B: 40 layers, hidden 5120, 64 heads, microbatch 1.
	GPT15B = Config{Name: "15B", Layers: 40, Hidden: 5120, Heads: 64, VocabSize: 50257, SeqLen: 512, MicrobatchSize: 1}
	// GPT51B: 50 layers, hidden 9216, 80 heads, microbatch 1.
	GPT51B = Config{Name: "51B", Layers: 50, Hidden: 9216, Heads: 80, VocabSize: 50257, SeqLen: 512, MicrobatchSize: 1}
)

// Table3 lists the four evaluation models in paper order.
func Table3() []Config { return []Config{GPT3B, GPT8B, GPT15B, GPT51B} }

// ByName returns the Table 3 model with the given name ("3B", "8B",
// "15B" or "51B").
func ByName(name string) (Config, bool) {
	for _, c := range Table3() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// Bytes-per-element constants for mixed-precision training (§3.1): FP16
// parameters and gradients on GPU; FP32 master weights plus Adam moments
// (12 bytes/param) stay in DRAM.
const (
	FP16Bytes       = 2
	FP32Bytes       = 4
	OptimBytesPerP  = 12 // fp32 master + Adam m + v
	StateBytesPerP  = 16 // fp16 param + fp16 grad + optimizer state
	ActElemBytes    = 2  // fp16 activations
	blockParamConst = 13 // per-hidden bias/layernorm terms in a block
)

// WithMicrobatch returns a copy of the config with a new microbatch size.
func (c Config) WithMicrobatch(mbs int) Config {
	c.MicrobatchSize = mbs
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.VocabSize <= 0 || c.SeqLen <= 0 || c.MicrobatchSize <= 0 {
		return fmt.Errorf("model %q: all dimensions must be positive: %+v", c.Name, c)
	}
	// Note: head divisibility is deliberately not required here — the
	// paper's own 51B config (hidden 9216, 80 heads) does not divide
	// evenly, and the analytic cost model does not depend on head size.
	return c.checkParams()
}

// checkParams rejects dimensions whose block (12·h²+13·h), embedding
// (V·h+S·h), head (V·h+2·h) or total parameter count overflows the int64
// that Layer.Params and TotalParams compute it in, naming the dimension.
func (c Config) checkParams() error {
	h, v := int64(c.Hidden), int64(c.VocabSize)
	w, ok := mulAdd(12, h, blockParamConst)
	block, ok2 := mulAdd(h, w, 0)
	if !ok || !ok2 {
		return fmt.Errorf("model %q: hidden %d overflows a block's int64 parameter count (12·h²+13·h)", c.Name, c.Hidden)
	}
	vh, ok := mulAdd(v, h, 0)
	emb, ok2 := mulAdd(int64(c.SeqLen), h, vh)
	head, ok3 := mulAdd(2, h, vh)
	if !ok || !ok2 || !ok3 {
		return fmt.Errorf("model %q: vocab size %d and sequence length %d at hidden %d overflow the embedding's or head's int64 parameter count (V·h+S·h, V·h+2·h)",
			c.Name, c.VocabSize, c.SeqLen, c.Hidden)
	}
	ends, ok := mulAdd(1, emb, head)
	if _, ok2 := mulAdd(int64(c.Layers), block, ends); !ok || !ok2 {
		return fmt.Errorf("model %q: %d layers of hidden %d overflow the int64 total parameter count", c.Name, c.Layers, c.Hidden)
	}
	return nil
}

// mulAdd returns a·b+c for non-negative operands and whether it fits in
// an int64.
func mulAdd(a, b, c int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	sum, carry := bits.Add64(lo, uint64(c), 0)
	return int64(sum), hi == 0 && carry == 0 && sum <= math.MaxInt64
}

// Layer is one vertical slice of the model: the unit of the partition
// problem. Layers are ordered embedding, blocks, head.
type Layer struct {
	Kind  LayerKind
	Index int // position in the model, 0-based
	cfg   Config
}

// Layers returns the model's layer sequence: embedding, Layers blocks,
// head.
func (c Config) LayerSeq() []Layer {
	out := make([]Layer, 0, c.Layers+2)
	out = append(out, Layer{Kind: KindEmbedding, Index: 0, cfg: c})
	for i := 0; i < c.Layers; i++ {
		out = append(out, Layer{Kind: KindBlock, Index: i + 1, cfg: c})
	}
	out = append(out, Layer{Kind: KindHead, Index: c.Layers + 1, cfg: c})
	return out
}

// Params returns the layer's parameter count.
func (l Layer) Params() int64 {
	h := int64(l.cfg.Hidden)
	switch l.Kind {
	case KindEmbedding:
		return int64(l.cfg.VocabSize)*h + int64(l.cfg.SeqLen)*h
	case KindBlock:
		// Attention (4h²+4h) + MLP (8h²+5h) + 2 layernorms (4h).
		return 12*h*h + blockParamConst*h
	case KindHead:
		// Final layernorm + untied vocabulary projection.
		return int64(l.cfg.VocabSize)*h + 2*h
	}
	return 0
}

// ParamBytesFP16 returns the layer's FP16 parameter footprint, the unit
// swapped between DRAM and GPU memory by Mobius (§3.1).
func (l Layer) ParamBytesFP16() float64 { return float64(l.Params()) * FP16Bytes }

// GradBytesFP16 returns the layer's FP16 gradient footprint.
func (l Layer) GradBytesFP16() float64 { return float64(l.Params()) * FP16Bytes }

// ActivationOutBytes returns the boundary activation a layer passes to its
// successor for one microbatch — the inter-stage transfer unit of the
// Mobius pipeline. The head emits only a scalar loss.
func (l Layer) ActivationOutBytes(mbs int) float64 {
	if l.Kind == KindHead {
		return 0
	}
	return float64(mbs) * float64(l.cfg.SeqLen) * float64(l.cfg.Hidden) * ActElemBytes
}

// WorkingBytes returns the transient GPU memory needed while computing
// the layer on one microbatch with activation checkpointing: attention
// score matrices plus a few hidden-sized buffers (and the logit buffer for
// the head).
func (l Layer) WorkingBytes(mbs int) float64 {
	m, s, h := float64(mbs), float64(l.cfg.SeqLen), float64(l.cfg.Hidden)
	switch l.Kind {
	case KindEmbedding:
		return 2 * m * s * h * ActElemBytes
	case KindBlock:
		scores := m * float64(l.cfg.Heads) * s * s * ActElemBytes
		buffers := 8 * m * s * h * ActElemBytes // qkv, mlp intermediate (4h), residuals
		return scores + buffers
	case KindHead:
		logits := m * s * float64(l.cfg.VocabSize) * ActElemBytes
		return logits + 2*m*s*h*ActElemBytes
	}
	return 0
}

// RetainedActivationBytes returns the activation memory a layer must
// keep per microbatch when training WITHOUT checkpointing [17]: every
// intermediate tensor of the layer survives until its backward pass.
// With checkpointing only the boundary activation (ActivationOutBytes)
// is kept and the rest is recomputed.
func (l Layer) RetainedActivationBytes(mbs int) float64 {
	m, s, h := float64(mbs), float64(l.cfg.SeqLen), float64(l.cfg.Hidden)
	switch l.Kind {
	case KindEmbedding:
		return m * s * h * ActElemBytes
	case KindBlock:
		scores := m * float64(l.cfg.Heads) * s * s * ActElemBytes
		// qkv (3h), attention out, ln outputs (2), mlp intermediate (4h),
		// gelu output (4h), residuals — ~14 hidden-sized tensors.
		buffers := 14 * m * s * h * ActElemBytes
		return scores + buffers
	case KindHead:
		return m * s * float64(l.cfg.VocabSize) * ActElemBytes
	}
	return 0
}

// FwdFLOPs returns the forward FLOPs for one microbatch.
func (l Layer) FwdFLOPs(mbs int) float64 {
	m, s, h := float64(mbs), float64(l.cfg.SeqLen), float64(l.cfg.Hidden)
	switch l.Kind {
	case KindEmbedding:
		return m * s * h // table lookups + add, negligible
	case KindBlock:
		// 2 FLOPs per param per token on the 12h² matmuls, plus the
		// attention score/value matmuls (4·m·s²·h).
		return 24*m*s*h*h + 4*m*s*s*h
	case KindHead:
		return 2 * m * s * h * float64(l.cfg.VocabSize)
	}
	return 0
}

// BwdFLOPs returns the backward FLOPs for one microbatch, including the
// recomputation forward pass implied by activation checkpointing [17]:
// backward ≈ 2× forward, plus 1× forward recompute.
func (l Layer) BwdFLOPs(mbs int) float64 { return 3 * l.FwdFLOPs(mbs) }

// BwdFLOPsNoRecompute returns the backward FLOPs when all activations
// are retained (no checkpointing): ≈ 2× forward.
func (l Layer) BwdFLOPsNoRecompute(mbs int) float64 { return 2 * l.FwdFLOPs(mbs) }

// FwdTime returns the simulated forward duration on the given GPU.
func (l Layer) FwdTime(g hw.GPUSpec, mbs int) float64 { return l.FwdFLOPs(mbs) / g.Effective() }

// BwdTime returns the simulated backward duration on the given GPU.
func (l Layer) BwdTime(g hw.GPUSpec, mbs int) float64 { return l.BwdFLOPs(mbs) / g.Effective() }

// SimilarityKey groups layers that share memory footprint and compute
// time, implementing the paper's layer-similarity profiling optimisation
// (§3.2): all transformer blocks collapse into one group.
func (l Layer) SimilarityKey() string {
	return fmt.Sprintf("%s/h%d/s%d", l.Kind, l.cfg.Hidden, l.cfg.SeqLen)
}

// TotalParams returns the model's parameter count.
func (c Config) TotalParams() int64 {
	var total int64
	for _, l := range c.LayerSeq() {
		total += l.Params()
	}
	return total
}

// ParamBytesFP16 returns the FP16 footprint of the full model.
func (c Config) ParamBytesFP16() float64 { return float64(c.TotalParams()) * FP16Bytes }

// ParamBytesFP32 returns the FP32 footprint of the full model; the paper's
// "model size" reference line in Figure 6 counts FP32 parameter bytes.
func (c Config) ParamBytesFP32() float64 { return float64(c.TotalParams()) * FP32Bytes }

// ModelStatesBytes returns the full mixed-precision training state (fp16
// params + fp16 grads + fp32 master + Adam moments), the quantity that
// must fit in aggregate GPU memory for all-in-GPU systems like GPipe.
func (c Config) ModelStatesBytes() float64 { return float64(c.TotalParams()) * StateBytesPerP }

func (c Config) String() string {
	return fmt.Sprintf("%s (%.1fB params, %d layers, hidden %d, heads %d, mbs %d)",
		c.Name, float64(c.TotalParams())/1e9, c.Layers, c.Hidden, c.Heads, c.MicrobatchSize)
}
