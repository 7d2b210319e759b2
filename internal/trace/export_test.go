package trace

// CDFBits exposes a CDF's sorted values, cumulative weights and total
// weight to the external oracle tests.
func CDFBits(c CDF) (values, cumul []float64, totalW float64) {
	for _, p := range c.points {
		values = append(values, p.Value)
		cumul = append(cumul, p.Weight)
	}
	return values, cumul, c.totalW
}
