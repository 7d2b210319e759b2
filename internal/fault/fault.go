// Package fault implements deterministic, seed-driven fault injection for
// the simulated hardware. A Spec declares degraded conditions — link
// bandwidth windows, silent data corruption, permanent GPU and link
// loss, fleet server losses and restarts — and Apply binds the
// per-server clauses to a built hw.Server, translating each into the
// simulator's low-level knobs (scheduled capacity and failure events, a
// corruption policy).
//
// Determinism: every effect is a pure function of the spec. Corruptions
// are decided by resil.Hash01, a splitmix64 hash of (seed, task id,
// rule, attempt) and the only randomness in the package, never by a
// shared RNG stream, so the injected corruptions do not depend on the
// order the simulator happens to start transfers in — two runs of the
// same DAG under the same spec produce identical schedules, and adding
// an unrelated fault clause never reshuffles the corruptions of an
// existing one.
package fault

import (
	"fmt"
	"math"
	"sort"

	"mobius/internal/hw"
)

// Spec is a declarative fault scenario applied to one simulated server.
type Spec struct {
	// Seed drives the corruption hash; different seeds produce
	// statistically independent corruption patterns.
	Seed int64 `json:"seed"`

	Links []LinkFault `json:"links,omitempty"`

	// Corruptions are silent-data-corruption events on transfers (see
	// corruption.go); detection depends on the run's checksum config.
	Corruptions []CorruptionFault `json:"corruptions,omitempty"`

	// HorizonS, when positive, bounds the simulated window the spec was
	// written for: permanent-failure onsets must land inside [0, HorizonS).
	// Zero means unbounded.
	HorizonS float64 `json:"horizon_s,omitempty"`

	// GPUFails and LinkFails are permanent failures (see permanent.go);
	// the run halts at the onset with a structured sim.ResourceLostError.
	GPUFails  []GPUFailFault  `json:"gpu_fails,omitempty"`
	LinkFails []LinkFailFault `json:"link_fails,omitempty"`

	// ServerFails are fleet-level failure domains (see server.go): whole
	// servers dropping out of a cluster run. The per-server Apply ignores
	// them — they are consumed by internal/cluster.
	ServerFails []ServerFailFault `json:"server_fails,omitempty"`

	// ServerRestarts bounce whole fleet servers: crash at At, rejoin
	// warm or cold after RestartLatencyS (see server.go); consumed by
	// internal/cluster.
	ServerRestarts []ServerRestartFault `json:"server_restarts,omitempty"`
}

// LinkFault degrades one bandwidth resource to a fraction of its nominal
// capacity during [Start, End) (End 0 means "until the run completes").
type LinkFault struct {
	// Link is the simulator resource name: "rc0", "gpu3.link",
	// "drambus", "ssd", "gpu0.nvlink".
	Link string `json:"link"`
	// Multiplier scales the nominal capacity; (0, 1].
	Multiplier float64 `json:"multiplier"`
	// Start and End bound the degradation window in simulated seconds.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s,omitempty"`
}

// Validate checks the spec against its documented ranges. It does not
// check names against a topology — that happens in Apply, where the
// server is known.
func (s *Spec) Validate() error {
	if err := s.validateFinite(); err != nil {
		return err
	}
	byLink := map[string][]LinkFault{}
	for i, l := range s.Links {
		if l.Link == "" {
			return fmt.Errorf("fault: links[%d]: missing link name", i)
		}
		if l.Multiplier <= 0 || l.Multiplier > 1 {
			return fmt.Errorf("fault: links[%d] (%s): multiplier %g out of range (0, 1]", i, l.Link, l.Multiplier)
		}
		if l.Start < 0 {
			return fmt.Errorf("fault: links[%d] (%s): negative start %g", i, l.Link, l.Start)
		}
		if l.End != 0 && l.End <= l.Start {
			return fmt.Errorf("fault: links[%d] (%s): window [%g, %g) is empty", i, l.Link, l.Start, l.End)
		}
		byLink[l.Link] = append(byLink[l.Link], l)
	}
	// Overlapping windows on one link would make the restore capacity
	// ambiguous; reject them.
	for link, ws := range byLink {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		for i := 1; i < len(ws); i++ {
			prev := ws[i-1]
			if prev.End == 0 || ws[i].Start < prev.End {
				return fmt.Errorf("fault: link %q has overlapping degradation windows ([%g, %s) and [%g, ...))",
					link, prev.Start, endLabel(prev.End), ws[i].Start)
			}
		}
	}
	if err := s.validateCorruptions(); err != nil {
		return err
	}
	if err := s.validateServers(); err != nil {
		return err
	}
	if err := s.validateRestarts(); err != nil {
		return err
	}
	return s.validatePermanent()
}

// validateFinite rejects NaN and ±Inf in every numeric field, naming
// the field: the range checks compare, and NaN fails every comparison,
// so it would pass each one.
func (s *Spec) validateFinite() error {
	var err error
	check := func(v float64, format string, args ...any) {
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("fault: "+format+" %g is not finite", append(args, v)...)
		}
	}
	check(s.HorizonS, "horizon_s")
	for i, l := range s.Links {
		check(l.Multiplier, "links[%d] (%s): multiplier", i, l.Link)
		check(l.Start, "links[%d] (%s): start_s", i, l.Link)
		check(l.End, "links[%d] (%s): end_s", i, l.Link)
	}
	for i, c := range s.Corruptions {
		check(c.Probability, "corruptions[%d] (%s): probability", i, c.Match)
	}
	for i, f := range s.ServerFails {
		check(f.At, "server_fails[%d] (server %d): at_s", i, f.Server)
	}
	for i, f := range s.ServerRestarts {
		check(f.At, "server_restarts[%d] (server %d): at_s", i, f.Server)
		check(f.RestartLatencyS, "server_restarts[%d] (server %d): restart_latency_s", i, f.Server)
	}
	for i, g := range s.GPUFails {
		check(g.At, "gpu_fails[%d] (gpu %d): at_s", i, g.GPU)
	}
	for i, l := range s.LinkFails {
		check(l.At, "link_fails[%d] (%s): at_s", i, l.Link)
	}
	return err
}

func endLabel(end float64) string {
	if end == 0 {
		return "inf"
	}
	return fmt.Sprintf("%g", end)
}

// Empty reports whether the spec injects nothing.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.Links) == 0 && len(s.Corruptions) == 0 &&
		len(s.GPUFails) == 0 && len(s.LinkFails) == 0 && len(s.ServerFails) == 0 &&
		len(s.ServerRestarts) == 0)
}

// Injection is the record of a spec bound to one server: what was applied
// and, after the simulation ran, what the corruption policy injected. One
// Injection belongs to one Sim and is not safe for concurrent use (the
// simulator itself is single-goroutine).
type Injection struct {
	// Spec is the applied scenario.
	Spec *Spec

	// LinkEvents counts scheduled capacity changes (degrade + restore).
	LinkEvents int
	// PermanentFailures counts scheduled permanent failure events.
	PermanentFailures int

	// Corruptions counts delivery attempts the corruption policy
	// corrupted (detected or not — see sim.IntegrityStats for the split).
	Corruptions int
}

// String summarizes the injection for CLI output.
func (inj *Injection) String() string {
	s := fmt.Sprintf("faults: %d link events", inj.LinkEvents)
	if inj.Corruptions > 0 {
		s += fmt.Sprintf("; %d corrupted deliveries", inj.Corruptions)
	}
	if inj.PermanentFailures > 0 {
		s += fmt.Sprintf("; %d permanent failures scheduled", inj.PermanentFailures)
	}
	return s
}

// Apply validates spec and binds it to srv: capacity windows are scheduled
// on the named resources, permanent failures scheduled, and the
// corruption policy installed on the simulator. It must be called after
// hw.Build and before Sim.Run.
func Apply(srv *hw.Server, spec *Spec) (*Injection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	inj := &Injection{Spec: spec}

	for i, l := range spec.Links {
		res := srv.ResourceByName(l.Link)
		if res == nil {
			return nil, fmt.Errorf("fault: links[%d]: no resource %q on topology %q (have %v)",
				i, l.Link, srv.Topo.Name, srv.ResourceNames())
		}
		nominal := res.Capacity()
		srv.Sim.ScheduleCapacity(res, l.Start, nominal*l.Multiplier)
		inj.LinkEvents++
		if l.End > 0 {
			srv.Sim.ScheduleCapacity(res, l.End, nominal)
			inj.LinkEvents++
		}
	}

	if err := applyPermanent(srv, spec, inj); err != nil {
		return nil, err
	}

	if len(spec.Corruptions) > 0 {
		srv.Sim.CorruptionPolicy = inj.corruptionPolicy(srv.Sim)
	}
	return inj, nil
}
