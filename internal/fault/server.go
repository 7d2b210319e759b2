package fault

import (
	"fmt"
	"sort"
)

// This file declares fleet-level failure domains: whole simulated servers
// dropping out of a cluster run (server_fails) or bouncing
// (server_restarts). Neither is bound by the per-server Apply — a single
// machine cannot lose itself mid-step and keep simulating — both are
// consumed by internal/cluster, which halts the victim's in-flight job,
// prices the checkpoint-consistent drain with the elastic machinery, and
// re-lands the work on the survivors.

// ServerFailFault removes one whole server from a cluster permanently at
// time At: its running job is interrupted at the onset, its queue is
// re-routed once the loss is detected, and its plan cache dies with it.
type ServerFailFault struct {
	// Server indexes the cluster's fleet (0-based).
	Server int `json:"server"`
	// At is the onset time in simulated cluster seconds.
	At float64 `json:"at_s"`
}

func (f ServerFailFault) String() string {
	return fmt.Sprintf("server %d fails at t=%.4g", f.Server, f.At)
}

// validateServers checks the server_fails clauses: non-negative indices
// and onsets, onsets inside the horizon when one is declared, and at most
// one failure per server (a server cannot die twice).
func (s *Spec) validateServers() error {
	seen := map[int]bool{}
	for i, f := range s.ServerFails {
		if f.Server < 0 {
			return fmt.Errorf("fault: server_fails[%d]: negative server %d", i, f.Server)
		}
		if f.At < 0 {
			return fmt.Errorf("fault: server_fails[%d] (server %d): negative onset %g", i, f.Server, f.At)
		}
		if s.HorizonS > 0 && f.At >= s.HorizonS {
			return fmt.Errorf("fault: server_fails[%d] (server %d): onset %g outside horizon [0, %g)", i, f.Server, f.At, s.HorizonS)
		}
		if seen[f.Server] {
			return fmt.Errorf("fault: server_fails[%d]: server %d fails twice", i, f.Server)
		}
		seen[f.Server] = true
	}
	return nil
}

// HasServerFails reports whether the spec declares any fleet-level
// server loss.
func (s *Spec) HasServerFails() bool { return s != nil && len(s.ServerFails) > 0 }

// ServerFailures returns the server losses sorted by onset (ties: spec
// order), the order a cluster run consumes them in.
func (s *Spec) ServerFailures() []ServerFailFault {
	if s == nil || len(s.ServerFails) == 0 {
		return nil
	}
	out := make([]ServerFailFault, len(s.ServerFails))
	copy(out, s.ServerFails)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
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

// WithoutCluster returns a copy of the spec with the fleet-level clauses
// removed: server_fails and server_restarts (consumed by the cluster
// event loop), plus the horizon that scopes them. What remains are the
// per-server clauses, which a fleet scenario may not carry:
// cluster.Run rejects a spec whose remainder is non-nil. Nil in, nil
// out.
func (s *Spec) WithoutCluster() *Spec {
	if s == nil {
		return nil
	}
	c := *s
	c.ServerFails = nil
	c.ServerRestarts = nil
	c.HorizonS = 0
	if c.Empty() {
		return nil
	}
	return &c
}
