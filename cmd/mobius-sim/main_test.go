package main

import (
	"slices"
	"strings"
	"testing"

	"mobius/internal/trace"
)

// bars returns each rendered row's bar length and printed value.
func bars(t *testing.T, out string) (lens []int, values []string) {
	t.Helper()
	for _, row := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.Split(row, "|")
		if len(parts) != 3 {
			t.Fatalf("row %q has no bar", row)
		}
		lens = append(lens, strings.Count(parts[1], "="))
		values = append(values, strings.TrimSpace(parts[2]))
	}
	return lens, values
}

// TestBandwidthCDFInGBps holds the bandwidth CDF to GB/s values on an
// axis that no bar outruns: a 26 GB/s root complex stretches the axis to
// its fastest flow, and a commodity one keeps the 13.1 GB/s axis.
func TestBandwidthCDFInGBps(t *testing.T) {
	for _, c := range []struct {
		name       string
		samples    []trace.Sample
		wantLens   []int
		wantValues []string
	}{
		{"faster than commodity", []trace.Sample{{Value: 13e9, Weight: 1}, {Value: 26e9, Weight: 3}},
			[]int{30, 60, 60, 60}, []string{"13.00", "26.00", "26.00", "26.00"}},
		{"commodity", []trace.Sample{{Value: 6.55e9, Weight: 1}, {Value: 13.1e9, Weight: 1}},
			[]int{30, 30, 60, 60}, []string{"6.55", "6.55", "13.10", "13.10"}},
	} {
		lens, values := bars(t, renderBandwidthCDF(trace.NewCDF(c.samples)))
		if !slices.Equal(values, c.wantValues) {
			t.Errorf("%s: quantiles %q, want %q GB/s", c.name, values, c.wantValues)
		}
		if !slices.Equal(lens, c.wantLens) {
			t.Errorf("%s: bar lengths %v, want %v", c.name, lens, c.wantLens)
		}
	}
}
