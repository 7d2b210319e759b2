package nn

import (
	"fmt"
	"math"
)

// NonFiniteError reports the first NaN or Inf found in a parameter scan —
// the footprint silent data corruption or numeric divergence leaves in a
// training run.
type NonFiniteError struct {
	// Param is the parameter name ("blk2.attn.wq", ...).
	Param string
	// Kind is "weight" or "gradient".
	Kind string
	// Index is the flat element index within the tensor.
	Index int
	// Value is the offending value (NaN, +Inf or -Inf).
	Value float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("nn: non-finite %s in %s[%d]: %v", e.Kind, e.Param, e.Index, e.Value)
}

// CheckFinite scans every parameter's weights and gradients and returns a
// *NonFiniteError for the first NaN/Inf found, or nil when all values are
// finite.
func CheckFinite(params []*Param) error {
	for _, p := range params {
		for i, w := range p.W.D {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return &NonFiniteError{Param: p.Name, Kind: "weight", Index: i, Value: w}
			}
		}
		for i, g := range p.G.D {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return &NonFiniteError{Param: p.Name, Kind: "gradient", Index: i, Value: g}
			}
		}
	}
	return nil
}

// GradNorm returns the global L2 norm over all gradients without
// modifying them.
func GradNorm(params []*Param) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G.D {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}
