package model

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"mobius/internal/hw"
)

func TestTable3ParameterCounts(t *testing.T) {
	// The derived parameter counts must land near the paper's labels.
	// (The "15B" config derives to ~13B from Table 3's architecture; see
	// EXPERIMENTS.md for the discrepancy note.)
	cases := []struct {
		cfg      Config
		minB     float64
		maxB     float64
		wantMbs  int
		wantHead int
	}{
		{GPT3B, 3.0, 3.9, 2, 32},
		{GPT8B, 8.0, 8.9, 2, 32},
		{GPT15B, 12.5, 15.5, 1, 64},
		{GPT51B, 50.0, 52.5, 1, 80},
	}
	for _, c := range cases {
		b := float64(c.cfg.TotalParams()) / 1e9
		if b < c.minB || b > c.maxB {
			t.Errorf("%s: %.2fB params, want within [%.1f, %.1f]", c.cfg.Name, b, c.minB, c.maxB)
		}
		if c.cfg.MicrobatchSize != c.wantMbs {
			t.Errorf("%s: microbatch %d, want %d", c.cfg.Name, c.cfg.MicrobatchSize, c.wantMbs)
		}
		if c.cfg.Heads != c.wantHead {
			t.Errorf("%s: heads %d, want %d", c.cfg.Name, c.cfg.Heads, c.wantHead)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.cfg.Name, err)
		}
	}
}

func TestLayerSeqStructure(t *testing.T) {
	seq := GPT8B.LayerSeq()
	if len(seq) != GPT8B.Layers+2 {
		t.Fatalf("layer count: got %d want %d", len(seq), GPT8B.Layers+2)
	}
	if seq[0].Kind != KindEmbedding || seq[len(seq)-1].Kind != KindHead {
		t.Fatal("layer sequence must start with embedding and end with head")
	}
	for i := 1; i < len(seq)-1; i++ {
		if seq[i].Kind != KindBlock {
			t.Fatalf("layer %d: got %v want block", i, seq[i].Kind)
		}
		if seq[i].Index != i {
			t.Fatalf("layer %d: index %d", i, seq[i].Index)
		}
	}
}

func TestBlockParamFormula(t *testing.T) {
	seq := GPT8B.LayerSeq()
	block := seq[1]
	h := int64(GPT8B.Hidden)
	want := 12*h*h + 13*h
	if block.Params() != want {
		t.Fatalf("block params: got %d want %d", block.Params(), want)
	}
}

func TestSimilarityKeyGroupsBlocks(t *testing.T) {
	seq := GPT15B.LayerSeq()
	keys := map[string]int{}
	for _, l := range seq {
		keys[l.SimilarityKey()]++
	}
	// Embedding, block, head: exactly three groups.
	if len(keys) != 3 {
		t.Fatalf("similarity groups: got %d want 3 (%v)", len(keys), keys)
	}
	blockKey := seq[1].SimilarityKey()
	if keys[blockKey] != GPT15B.Layers {
		t.Fatalf("block group size: got %d want %d", keys[blockKey], GPT15B.Layers)
	}
}

func TestActivationBoundaryBytes(t *testing.T) {
	l := GPT8B.LayerSeq()[1]
	want := float64(2) * 512 * 4096 * 2 // mbs * seq * hidden * fp16
	if got := l.ActivationOutBytes(2); got != want {
		t.Fatalf("activation bytes: got %g want %g", got, want)
	}
	head := GPT8B.LayerSeq()[GPT8B.Layers+1]
	if head.ActivationOutBytes(2) != 0 {
		t.Fatal("head must emit no boundary activation")
	}
}

func TestFLOPsMonotonicInMicrobatch(t *testing.T) {
	f := func(mbsRaw uint8) bool {
		mbs := int(mbsRaw%8) + 1
		l := GPT8B.LayerSeq()[1]
		return l.FwdFLOPs(mbs+1) > l.FwdFLOPs(mbs) && l.BwdFLOPs(mbs) == 3*l.FwdFLOPs(mbs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeTimesPositiveAndOrdered(t *testing.T) {
	for _, cfg := range Table3() {
		for _, l := range cfg.LayerSeq() {
			fw := l.FwdTime(hw.RTX3090Ti, cfg.MicrobatchSize)
			bw := l.BwdTime(hw.RTX3090Ti, cfg.MicrobatchSize)
			if fw < 0 || bw <= 0 {
				t.Fatalf("%s %v: non-positive time", cfg.Name, l.Kind)
			}
			if bw < fw {
				t.Fatalf("%s %v: backward faster than forward", cfg.Name, l.Kind)
			}
		}
	}
}

func TestModelStatesDominateGPUMemory(t *testing.T) {
	// The premise of heterogeneous-memory training: every Table 3 model
	// except 3B exceeds 4x24 GB of aggregate GPU memory in full
	// mixed-precision state.
	agg := 4 * hw.RTX3090Ti.MemBytes
	if GPT3B.ModelStatesBytes() > agg {
		t.Errorf("3B must fit in aggregate GPU memory (GPipe baseline trains it)")
	}
	for _, cfg := range []Config{GPT8B, GPT15B, GPT51B} {
		if cfg.ModelStatesBytes() <= agg {
			t.Errorf("%s must exceed aggregate GPU memory", cfg.Name)
		}
	}
}

func TestWithMicrobatch(t *testing.T) {
	c := GPT8B.WithMicrobatch(8)
	if c.MicrobatchSize != 8 || GPT8B.MicrobatchSize != 2 {
		t.Fatal("WithMicrobatch must copy")
	}
}

func TestByName(t *testing.T) {
	if c, ok := ByName("15B"); !ok || c != GPT15B {
		t.Fatalf("ByName(15B) = %v, %v; want GPT15B", c, ok)
	}
	if c, ok := ByName("15b"); ok || c != (Config{}) {
		t.Fatalf("ByName(15b) = %v, %v; want no match", c, ok)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := GPT8B
	bad.Layers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero layers must fail")
	}
	bad2 := GPT8B
	bad2.MicrobatchSize = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero microbatch must fail")
	}
}

// TestValidateBoundsParamCounts holds Validate to the int64 the cost
// model counts parameters in: hidden 876,706,527 is the largest whose
// block (12·h²+13·h) fits, and every rejection names its dimension.
func TestValidateBoundsParamCounts(t *testing.T) {
	tiny := Config{Name: "edge", Layers: 1, Hidden: 876706527, Heads: 1, VocabSize: 1, SeqLen: 1, MicrobatchSize: 1}
	if err := tiny.Validate(); err != nil {
		t.Fatalf("hidden 876706527: %v", err)
	}
	block := func(h int64) *big.Int { // 12·h²+13·h, exactly
		b := big.NewInt(h)
		return b.Mul(b, big.NewInt(12*h+13))
	}
	if p := tiny.LayerSeq()[1].Params(); big.NewInt(p).Cmp(block(876706527)) != 0 {
		t.Fatalf("hidden 876706527: block has %d parameters, want %v", p, block(876706527))
	}
	if block(876706528).IsInt64() {
		t.Fatal("hidden 876706528: block count fits int64; the boundary moved")
	}
	if n := tiny.TotalParams(); n <= 0 {
		t.Fatalf("hidden 876706527: total %d parameters", n)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"block", func(c *Config) { c.Hidden = 876706528 }, "hidden 876706528"},
		{"huge hidden", func(c *Config) { c.Hidden = 1000000000 }, "hidden 1000000000"},
		{"vocab x hidden", func(c *Config) { c.Hidden, c.VocabSize = 1<<24, 1<<40 }, "vocab size 1099511627776"},
		{"vocab + seq", func(c *Config) { c.Hidden, c.VocabSize, c.SeqLen = 1<<24, 1<<39, 1<<39 }, "sequence length 549755813888"},
		{"head", func(c *Config) { c.Hidden, c.VocabSize = 1, math.MaxInt64-1 }, "vocab size 9223372036854775806"},
		{"total", func(c *Config) { c.Hidden, c.Layers = 1<<28, 256 }, "256 layers"},
	} {
		cfg := tiny
		c.edit(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

func TestBlockFitsInGPU(t *testing.T) {
	// Table 3's note: a 9216-hidden block is the largest a single GPU can
	// hold during training. Its fp16 params + grads + working set must
	// fit in 24 GB.
	l := GPT51B.LayerSeq()[1]
	need := l.ParamBytesFP16() + l.GradBytesFP16() + l.WorkingBytes(1)
	if need > hw.RTX3090Ti.MemBytes {
		t.Fatalf("51B block does not fit on a 3090-Ti: need %g", need)
	}
}

func TestStringIncludesName(t *testing.T) {
	if s := GPT51B.String(); len(s) == 0 || s[:3] != "51B" {
		t.Fatalf("unexpected String: %q", s)
	}
}
