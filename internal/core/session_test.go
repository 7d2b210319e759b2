package core

import (
	"context"
	"math"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/sim"
)

// TestSessionMatchesRunCtx holds a session's step to the RunCtx step for
// the same options: both build through buildMobius, so step time,
// traffic, the OOM outcome, the integrity accounting and the record
// counts must agree bit for bit, with and without faults and checksums.
func TestSessionMatchesRunCtx(t *testing.T) {
	// Eight balanced stages on four GPUs: the second round of stages is
	// prefetched, so the prefetch knobs change the step.
	base := Options{Model: model.GPT3B, Topology: topo22(), PartitionAlgo: partition.AlgoBalanced, BalancedStages: 8}
	nominal, err := RunCtx(context.Background(), SystemMobius, base)
	if err != nil {
		t.Fatal(err)
	}
	rc0 := &fault.Spec{Links: []fault.LinkFault{{Link: "rc0", Multiplier: 0.25, End: nominal.StepTime / 2}}}
	corrupt := &fault.Spec{Seed: 7, Corruptions: []fault.CorruptionFault{{Match: "*", Probability: 0.05}}}
	for _, c := range []struct {
		name string
		edit func(*Options)
	}{
		{"nominal", func(*Options) {}},
		{"no-prefetch", func(o *Options) { o.DisablePrefetch = true }},
		{"no-priority", func(o *Options) { o.DisablePrefetchPriority = true }},
		{"checkpoint", func(o *Options) {
			o.Checkpoint = &pipeline.CheckpointWrite{Bytes: o.Model.ModelStatesBytes()}
		}},
		{"rc0-window", func(o *Options) { o.Faults = rc0 }},
		{"corruption-checksums", func(o *Options) {
			o.Faults = corrupt
			o.Checksums = sim.ChecksumConfig{Enabled: true}
		}},
	} {
		opts := base
		c.edit(&opts)
		want, err := RunCtx(context.Background(), SystemMobius, opts)
		if err != nil {
			t.Fatalf("%s: RunCtx: %v", c.name, err)
		}
		ses, err := NewMobiusSession(opts)
		if err != nil {
			t.Fatalf("%s: NewMobiusSession: %v", c.name, err)
		}
		got, err := ses.Run(opts.Faults, opts.Checksums)
		if err != nil {
			t.Fatalf("%s: session Run: %v", c.name, err)
		}
		if math.Float64bits(got.StepTime) != math.Float64bits(want.StepTime) ||
			math.Float64bits(got.TrafficBytes) != math.Float64bits(want.TrafficBytes) {
			t.Errorf("%s: session step %v s, %v B; RunCtx %v s, %v B",
				c.name, got.StepTime, got.TrafficBytes, want.StepTime, want.TrafficBytes)
		}
		if got.OOM != want.OOM || got.OOMCause != want.OOMCause {
			t.Errorf("%s: session OOM %v (%q), RunCtx %v (%q)", c.name, got.OOM, got.OOMCause, want.OOM, want.OOMCause)
		}
		if got.Integrity != want.Integrity || (got.Corruption == nil) != (want.Corruption == nil) {
			t.Errorf("%s: session integrity %+v (halted %v), RunCtx %+v (halted %v)",
				c.name, got.Integrity, got.Corruption != nil, want.Integrity, want.Corruption != nil)
		}
		gf, gc := len(got.Recorder.Flows), len(got.Recorder.Computes)
		wf, wc := len(want.Recorder.Flows), len(want.Recorder.Computes)
		if gf != wf || gc != wc {
			t.Errorf("%s: session records %d flows, %d computes; RunCtx %d, %d", c.name, gf, gc, wf, wc)
		}

		// Each variant must change the step, so the comparison covers the
		// option or fault it names.
		switch {
		case c.name == "nominal":
		case c.name == "corruption-checksums" && want.Integrity.Retransmits == 0:
			t.Errorf("%s: no retransmit; the corruption never fired", c.name)
		case want.StepTime == nominal.StepTime:
			t.Errorf("%s: step time %v equals the nominal step's", c.name, want.StepTime)
		}
	}
}
