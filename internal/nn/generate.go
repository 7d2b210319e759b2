package nn

import (
	"math"

	"mobius/internal/tensor"
)

// Generate produces tokens by greedy decoding from a prompt: the
// convergence demo uses it to show the fine-tuned model actually learned
// the corpus structure. The model must have been built by NewGPT.
func (m *Model) Generate(prompt []int, n int) []int {
	out := append([]int(nil), prompt...)
	for len(out) < len(prompt)+n {
		// Window the last Seq tokens (left-pad with token 0).
		window := make([]int, m.Cfg.Seq)
		start := len(out) - m.Cfg.Seq
		for i := range window {
			j := start + i
			if j >= 0 {
				window[i] = out[j]
			}
		}
		batch := Batch{Tokens: [][]int{window}}
		var x *tensor.Mat
		for _, u := range m.Units {
			x, _ = u.Forward(x, batch)
		}
		// Greedy pick at the last position.
		row := x.Row(m.Cfg.Seq - 1)
		best, bestV := 0, math.Inf(-1)
		for tok, v := range row {
			if v > bestV {
				best, bestV = tok, v
			}
		}
		out = append(out, best)
	}
	return out
}
