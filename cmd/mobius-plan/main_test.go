package main

import (
	"strings"
	"testing"
	"time"

	"mobius/internal/hw"
	"mobius/internal/mapping"
)

// TestCheckArgs holds check to its refusals: a negative -mbs or
// -deadline is named by its flag, and a cross mapping over more GPUs
// than the plan service's limit is refused while a sequential one is not.
func TestCheckArgs(t *testing.T) {
	ok := planArgs{scheme: mapping.SchemeCross, topo: hw.Commodity(hw.RTX3090Ti, 4, 4)}
	for _, c := range []struct {
		name string
		edit func(*planArgs)
		want string // "" accepts
	}{
		{"defaults", func(*planArgs) {}, ""},
		{"microbatch", func(a *planArgs) { a.mbs = 4 }, ""},
		{"deadline", func(a *planArgs) { a.deadline = time.Millisecond }, ""},
		{"dc8", func(a *planArgs) { a.topo = hw.DataCenter(hw.V100, 8, 300*hw.GB) }, ""},
		{"negative mbs", func(a *planArgs) { a.mbs = -1 }, "-mbs"},
		{"negative deadline", func(a *planArgs) { a.deadline = -time.Second }, "-deadline"},
		{"cross on 13", func(a *planArgs) { a.topo = hw.Commodity(hw.RTX3090Ti, 13) }, "8-GPU limit"},
		{"cross on 4+4+4+4", func(a *planArgs) { a.topo = hw.Commodity(hw.RTX3090Ti, 4, 4, 4, 4) }, "8-GPU limit"},
		{"default scheme on 13", func(a *planArgs) { a.scheme, a.topo = "", hw.Commodity(hw.RTX3090Ti, 13) }, "8-GPU limit"},
		{"cross on 5+4", func(a *planArgs) { a.topo = hw.Commodity(hw.RTX3090Ti, 5, 4) }, "8-GPU limit"},
		{"sequential on 16", func(a *planArgs) { a.scheme, a.topo = mapping.SchemeSequential, hw.Commodity(hw.RTX3090Ti, 16) }, ""},
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
