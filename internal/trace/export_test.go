package trace

// CDFBits exposes a CDF's sorted values, cumulative weights and total
// weight to the external oracle tests.
func CDFBits(c CDF) (values, cumul []float64, totalW float64) {
	return c.values, c.cumul, c.totalW
}
