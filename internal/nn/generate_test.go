package nn

import "testing"

func TestGenerateShapesAndDeterminism(t *testing.T) {
	cfg := tinyCfg()
	m, _ := NewGPT(cfg)
	prompt := []int{1, 2, 3}
	a := m.Generate(prompt, 5)
	b := m.Generate(prompt, 5)
	if len(a) != 8 {
		t.Fatalf("generated length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decoding must be deterministic")
		}
		if a[i] < 0 || a[i] >= cfg.Vocab {
			t.Fatalf("token %d out of range", a[i])
		}
	}
	for i, tok := range prompt {
		if a[i] != tok {
			t.Fatal("prompt must be preserved")
		}
	}
}
