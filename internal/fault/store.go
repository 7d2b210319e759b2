package fault

import (
	"fmt"
	"sort"

	"mobius/internal/resil"
)

// This file declares the persistence-layer fault clauses: I/O faults on
// the plan store's write-behind path (store_faults) and whole-server
// process restarts (server_restarts). Like the Planner and ServerFails
// clauses, neither is bound by the per-server Apply — store faults are
// consumed by internal/planstore, restarts by internal/cluster.

// StoreFault injects I/O failures into the plan store's write-behind
// worker (internal/planstore). Each matching operation suffers LatencyMS
// of injected device latency and then, with Probability, fails — either
// cleanly (mode "fail": nothing reaches the directory) or as a torn
// write (mode "torn": only a prefix of the record lands on the final
// path, modeling a crash mid-write or a partial page flush). Decisions
// are a pure function of (seed, rule, key, op sequence), so a scenario
// replays the same faults regardless of goroutine scheduling.
type StoreFault struct {
	// Op selects operations: "put", "delete", or "*" for both.
	Op string `json:"op"`
	// Mode is the failure shape: "fail" (default; the write never
	// happens) or "torn" (a prefix of the record lands on the final
	// path). Torn mode applies to puts only.
	Mode string `json:"mode,omitempty"`
	// Probability of each matching operation failing; [0, 1]. 1 models
	// a fully broken disk — the store keeps serving from memory and a
	// restart simply comes up cold.
	Probability float64 `json:"probability"`
	// TornAtByte fixes the tear point of a torn write (bytes of the
	// record that reach disk). 0 derives it deterministically from the
	// operation hash, so a matrix of seeds tears at varied offsets.
	TornAtByte int `json:"torn_at_byte,omitempty"`
	// LatencyMS is added to every matching operation before it runs,
	// modeling a contended or degraded device.
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// Store fault modes and the op wildcard.
const (
	StoreOpPut    = "put"
	StoreOpDelete = "delete"
	StoreModeFail = "fail"
	StoreModeTorn = "torn"
)

// StoreDecision is the fate of one plan-store operation.
type StoreDecision struct {
	// LatencyS is injected device latency in seconds.
	LatencyS float64
	// Fail means the operation does not happen (clean failure).
	Fail bool
	// Torn means a put lands as a partial record on the final path.
	// TornAtByte is the tear point; 0 means the store derives it from
	// TornHash (a uniform [0,1) fraction of the record length).
	Torn       bool
	TornAtByte int
	TornHash   float64
}

// storeSalt separates the store-fault hash domain from every other
// decision stream; tearSalt separates the tear-point draw from the
// fail/torn draw.
const (
	storeSalt = 0x73746f72 // "stor"
	tearSalt  = 0x74656172 // "tear"
)

// StoreOp decides the fate of one plan-store operation: op is "put" or
// "delete", key a stable hash of the record key, seq the store's
// monotonic operation counter. The first matching rule decides; a nil
// spec injects nothing.
func (s *Spec) StoreOp(op string, key, seq uint64) StoreDecision {
	var d StoreDecision
	if s == nil {
		return d
	}
	for ri, rule := range s.StoreFaults {
		if rule.Op != "*" && rule.Op != op {
			continue
		}
		d.LatencyS = rule.LatencyMS * 1e-3
		if rule.Probability <= 0 {
			return d
		}
		if resil.Hash01(s.Seed, storeSalt, uint64(ri), key, seq) >= rule.Probability {
			return d
		}
		if rule.Mode == StoreModeTorn && op == StoreOpPut {
			d.Torn = true
			d.TornAtByte = rule.TornAtByte
			d.TornHash = resil.Hash01(s.Seed, tearSalt, uint64(ri), key, seq)
		} else {
			d.Fail = true
		}
		return d
	}
	return d
}

// validateStore checks the store_faults clauses against their documented
// ranges.
func (s *Spec) validateStore() error {
	for i, f := range s.StoreFaults {
		switch f.Op {
		case StoreOpPut, StoreOpDelete, "*":
		case "":
			return fmt.Errorf("fault: store_faults[%d]: missing op (want %q, %q or \"*\")", i, StoreOpPut, StoreOpDelete)
		default:
			return fmt.Errorf("fault: store_faults[%d]: unknown op %q (want %q, %q or \"*\")", i, f.Op, StoreOpPut, StoreOpDelete)
		}
		switch f.Mode {
		case "", StoreModeFail:
		case StoreModeTorn:
			if f.Op == StoreOpDelete {
				return fmt.Errorf("fault: store_faults[%d]: torn mode applies to puts, not deletes", i)
			}
		default:
			return fmt.Errorf("fault: store_faults[%d]: unknown mode %q (want %q or %q)", i, f.Mode, StoreModeFail, StoreModeTorn)
		}
		if f.Probability < 0 || f.Probability > 1 {
			return fmt.Errorf("fault: store_faults[%d] (%s): probability %g out of range [0, 1]", i, f.Op, f.Probability)
		}
		if f.TornAtByte < 0 {
			return fmt.Errorf("fault: store_faults[%d] (%s): negative torn_at_byte %d", i, f.Op, f.TornAtByte)
		}
		if f.TornAtByte > 0 && f.Mode != StoreModeTorn {
			return fmt.Errorf("fault: store_faults[%d] (%s): torn_at_byte needs mode %q", i, f.Op, StoreModeTorn)
		}
		if f.LatencyMS < 0 {
			return fmt.Errorf("fault: store_faults[%d] (%s): negative latency_ms %g", i, f.Op, f.LatencyMS)
		}
	}
	return nil
}

// ServerRestartFault bounces one fleet server: the process dies at At
// (in-flight work rewinds to its checkpoint exactly as under a
// ServerFailFault), and the server rejoins RestartLatencyS later — warm
// from its persisted plan store, or cold when Cold is set (or the fleet
// runs without persistence and the restart is declared cold).
type ServerRestartFault struct {
	// Server indexes the cluster's fleet (0-based).
	Server int `json:"server"`
	// At is the crash time in simulated cluster seconds.
	At float64 `json:"at_s"`
	// RestartLatencyS is the downtime before the server rejoins; 0
	// takes the cluster's default (5s).
	RestartLatencyS float64 `json:"restart_latency_s,omitempty"`
	// Cold discards the server's plan cache across the bounce even when
	// a persistent store is configured — the cold-start baseline the
	// warm path is measured against.
	Cold bool `json:"cold,omitempty"`
}

func (f ServerRestartFault) String() string {
	kind := "warm"
	if f.Cold {
		kind = "cold"
	}
	return fmt.Sprintf("server %d restarts (%s) at t=%.4g", f.Server, kind, f.At)
}

// validateRestarts checks the server_restarts clauses: non-negative
// indices, onsets inside the horizon, at most one restart per server,
// and no overlap with a permanent server_fails loss (a server cannot
// both die for good and come back).
func (s *Spec) validateRestarts() error {
	dead := map[int]bool{}
	for _, f := range s.ServerFails {
		dead[f.Server] = true
	}
	seen := map[int]bool{}
	for i, f := range s.ServerRestarts {
		if f.Server < 0 {
			return fmt.Errorf("fault: server_restarts[%d]: negative server %d", i, f.Server)
		}
		if f.At < 0 {
			return fmt.Errorf("fault: server_restarts[%d] (server %d): negative onset %g", i, f.Server, f.At)
		}
		if s.HorizonS > 0 && f.At >= s.HorizonS {
			return fmt.Errorf("fault: server_restarts[%d] (server %d): onset %g outside horizon [0, %g)", i, f.Server, f.At, s.HorizonS)
		}
		if f.RestartLatencyS < 0 {
			return fmt.Errorf("fault: server_restarts[%d] (server %d): negative restart_latency_s %g", i, f.Server, f.RestartLatencyS)
		}
		if dead[f.Server] {
			return fmt.Errorf("fault: server_restarts[%d]: server %d both fails permanently and restarts", i, f.Server)
		}
		if seen[f.Server] {
			return fmt.Errorf("fault: server_restarts[%d]: server %d restarts twice", i, f.Server)
		}
		seen[f.Server] = true
	}
	return nil
}

// HasServerRestarts reports whether the spec declares any server bounce.
func (s *Spec) HasServerRestarts() bool { return s != nil && len(s.ServerRestarts) > 0 }

// RestartSchedule returns the restarts sorted by onset (ties: spec
// order), the order a cluster run consumes them in.
func (s *Spec) RestartSchedule() []ServerRestartFault {
	if s == nil || len(s.ServerRestarts) == 0 {
		return nil
	}
	out := make([]ServerRestartFault, len(s.ServerRestarts))
	copy(out, s.ServerRestarts)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
