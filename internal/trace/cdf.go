package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Sample is one weighted observation for a CDF.
type Sample struct {
	Value  float64
	Weight float64
}

// CDF is a weighted cumulative distribution over float64 values. For
// bandwidth CDFs the weight is the transferred byte count, matching the
// paper's "fraction of data transferred at bandwidth <= x" plots.
type CDF struct {
	// points are the kept samples in ascending value order, each Weight
	// replaced by the cumulative weight up to and including it.
	points []Sample
	totalW float64
}

// NewCDF builds a CDF from samples; zero- or negative-weight samples are
// dropped. samples is left as it was.
func NewCDF(samples []Sample) CDF { return cdfOf(slices.Clone(samples)) }

// cdfOf builds the CDF of samples in place: it drops zero- and
// negative-weight samples, sorts the rest within the caller's buffer and
// accumulates their weights there, so the CDF owns the buffer.
func cdfOf(samples []Sample) CDF {
	kept := samples[:0]
	for _, s := range samples {
		if s.Weight > 0 {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return CDF{}
	}
	slices.SortFunc(kept, func(a, b Sample) int { return compareLess(a.Value, b.Value) })
	c := CDF{points: kept}
	for i := range kept {
		c.totalW += kept[i].Weight
		kept[i].Weight = c.totalW
	}
	return c
}

// compareLess orders a before b exactly when a < b: the sort then makes
// the same comparisons and swaps as a sort.Slice on a < b, so equal
// values keep the same relative order and cumulative sums round the
// same way.
func compareLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// Empty reports whether the CDF has no mass.
func (c CDF) Empty() bool { return c.totalW <= 0 }

// FractionAtOrBelow returns P[X <= x].
func (c CDF) FractionAtOrBelow(x float64) float64 {
	if c.Empty() {
		return 0
	}
	p := c.points
	i := sort.Search(len(p), func(i int) bool { return p[i].Value >= x })
	// Include equal values.
	for i < len(p) && p[i].Value <= x {
		i++
	}
	if i == 0 {
		return 0
	}
	return p[i-1].Weight / c.totalW
}

// FractionAbove returns P[X > x].
func (c CDF) FractionAbove(x float64) float64 { return 1 - c.FractionAtOrBelow(x) }

// Quantile returns the smallest value v with P[X <= v] >= q.
func (c CDF) Quantile(q float64) float64 {
	if c.Empty() {
		return 0
	}
	target := q * c.totalW
	p := c.points
	i := sort.Search(len(p), func(i int) bool { return p[i].Weight >= target })
	if i >= len(p) {
		i = len(p) - 1
	}
	return p[i].Value
}

// Median returns the 0.5 quantile.
func (c CDF) Median() float64 { return c.Quantile(0.5) }

// Max returns the largest observed value.
func (c CDF) Max() float64 {
	if c.Empty() {
		return 0
	}
	return c.points[len(c.points)-1].Value
}

// Points returns up to n evenly spaced (value, fraction) pairs for
// plotting.
func (c CDF) Points(n int) [][2]float64 {
	if c.Empty() || n <= 0 {
		return nil
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i+1) / float64(n)
		v := c.Quantile(q)
		out = append(out, [2]float64{v, q})
	}
	return out
}

// Render draws an ASCII CDF over [0, xMax] with the given width, one row
// per quartile marker, for terminal reports. Each row prints its value
// in multiples of unit (1e9 prints bytes/s as GB/s).
func (c CDF) Render(xMax, unit float64, width int) string {
	if c.Empty() || xMax <= 0 || unit <= 0 || width <= 0 {
		return "(no data)"
	}
	var b strings.Builder
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
		v := c.Quantile(q)
		pos := int(v / xMax * float64(width))
		if pos > width {
			pos = width
		}
		fmt.Fprintf(&b, "p%02.0f |%s%s| %6.2f\n", q*100, strings.Repeat("=", pos), strings.Repeat(" ", width-pos), v/unit)
	}
	return b.String()
}
