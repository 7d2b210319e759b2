package fault

import (
	"fmt"
	"sort"
)

// This file declares fleet-level failure domains: whole simulated servers
// dropping out of a cluster run. Server_fails is not bound by the
// per-server Apply — a single machine cannot lose itself mid-step and
// keep simulating — it is consumed by internal/cluster, which halts the
// victim's in-flight job, prices the checkpoint-consistent drain with
// the elastic machinery, and re-lands the work on the survivors.

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

// WithoutCluster returns a copy of the spec with the fleet-level clauses
// removed: server_fails and server_restarts (consumed by the cluster
// event loop), store_faults (consumed by the plan store), plus the
// horizon that scopes them. What remains are the per-server conditions
// — degraded links, stragglers, transient retries, memory pressure —
// that every server of the fleet simulates its training steps under.
// Nil in, nil out.
func (s *Spec) WithoutCluster() *Spec {
	if s == nil {
		return nil
	}
	c := *s
	c.ServerFails = nil
	c.ServerRestarts = nil
	c.StoreFaults = nil
	c.HorizonS = 0
	if c.Empty() {
		return nil
	}
	return &c
}
