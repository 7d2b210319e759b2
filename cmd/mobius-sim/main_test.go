package main

import (
	"slices"
	"strings"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
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

// TestCheckArgs holds check to its refusals: each out-of-range number is
// named by its flag, and only a Mobius run is refused a topology over
// the plan service's GPU limit.
func TestCheckArgs(t *testing.T) {
	ok := simArgs{system: core.SystemMobius, topo: hw.Commodity(hw.RTX3090Ti, 4, 4), width: 100, steps: 1}
	big := hw.Commodity(hw.RTX3090Ti, 64)
	for _, c := range []struct {
		name string
		edit func(*simArgs)
		want string // "" accepts
	}{
		{"defaults", func(*simArgs) {}, ""},
		{"no timeline", func(a *simArgs) { a.width = 0 }, ""},
		{"widest", func(a *simArgs) { a.width = 1000 }, ""},
		{"elastic", func(a *simArgs) { a.steps, a.ckptEvery, a.rollback = 8, 2, 5 }, ""},
		{"huge width", func(a *simArgs) { a.width = 100000000 }, "-width"},
		{"negative width", func(a *simArgs) { a.width = -1 }, "-width"},
		{"negative steps", func(a *simArgs) { a.steps = -1 }, "-steps"},
		{"zero steps", func(a *simArgs) { a.steps = 0 }, "-steps"},
		{"negative checkpoint", func(a *simArgs) { a.ckptEvery = -3 }, "-checkpoint-every"},
		{"negative rollback", func(a *simArgs) { a.rollback = -2 }, "-rollback"},
		{"mobius on 64 GPUs", func(a *simArgs) { a.topo = big }, "8-GPU limit"},
		{"mobius on 4+4+4+4", func(a *simArgs) { a.topo = hw.Commodity(hw.RTX3090Ti, 4, 4, 4, 4) }, "8-GPU limit"},
		{"gpipe on 64 GPUs", func(a *simArgs) { a.system, a.topo = core.SystemGPipe, big }, ""},
		{"ds-hetero on 64 GPUs", func(a *simArgs) { a.system, a.topo = core.SystemDSHetero, big }, ""},
	} {
		a := ok
		c.edit(&a)
		err := a.check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}
