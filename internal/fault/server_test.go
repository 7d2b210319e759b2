package fault

import "testing"

func TestServerFailValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid", Spec{ServerFails: []ServerFailFault{{Server: 0, At: 1}, {Server: 2, At: 0}}}, true},
		{"negative server", Spec{ServerFails: []ServerFailFault{{Server: -1, At: 1}}}, false},
		{"negative onset", Spec{ServerFails: []ServerFailFault{{Server: 0, At: -0.5}}}, false},
		{"twice", Spec{ServerFails: []ServerFailFault{{Server: 1, At: 1}, {Server: 1, At: 2}}}, false},
		{"outside horizon", Spec{HorizonS: 5, ServerFails: []ServerFailFault{{Server: 0, At: 5}}}, false},
		{"inside horizon", Spec{HorizonS: 5, ServerFails: []ServerFailFault{{Server: 0, At: 4.9}}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestServerFailuresSorted: ServerFailures returns onset order whatever
// the spec order, and never aliases the spec's slice.
func TestServerFailuresSorted(t *testing.T) {
	s := &Spec{ServerFails: []ServerFailFault{{Server: 3, At: 9}, {Server: 1, At: 2}, {Server: 0, At: 2}}}
	fs := s.ServerFailures()
	if len(fs) != 3 || fs[0].Server != 1 || fs[1].Server != 0 || fs[2].Server != 3 {
		t.Fatalf("failures not in onset order (stable): %+v", fs)
	}
	fs[0].Server = 99
	if s.ServerFails[1].Server != 1 {
		t.Fatal("ServerFailures aliases the spec")
	}
	var nilSpec *Spec
	if nilSpec.ServerFailures() != nil || nilSpec.HasServerFails() {
		t.Fatal("nil spec must have no server failures")
	}
}

// TestWithoutCluster strips the fleet-level clauses and keeps the
// per-server conditions; a spec that was only fleet-level collapses to
// nil.
func TestWithoutCluster(t *testing.T) {
	s := &Spec{
		Seed:        11,
		HorizonS:    60,
		ServerFails: []ServerFailFault{{Server: 0, At: 5}},
		Links:       []LinkFault{{Link: "rc0", Multiplier: 0.5}},
	}
	c := s.WithoutCluster()
	if c == nil || len(c.ServerFails) != 0 || c.HorizonS != 0 {
		t.Fatalf("fleet clauses not stripped: %+v", c)
	}
	if len(c.Links) != 1 || c.Seed != 11 {
		t.Fatalf("per-server conditions lost: %+v", c)
	}
	if len(s.ServerFails) != 1 {
		t.Fatal("WithoutCluster mutated the receiver")
	}
	only := &Spec{ServerFails: []ServerFailFault{{Server: 0, At: 5}}}
	if only.WithoutCluster() != nil {
		t.Fatal("fleet-only spec should collapse to nil")
	}
	var nilSpec *Spec
	if nilSpec.WithoutCluster() != nil {
		t.Fatal("nil in, nil out")
	}
	if (&Spec{ServerFails: []ServerFailFault{{Server: 0}}}).Empty() {
		t.Fatal("server_fails spec must not be Empty")
	}
}

// TestRestartSchedule: sorted by onset, stable for ties, nil-safe.
func TestRestartSchedule(t *testing.T) {
	spec := &Spec{ServerRestarts: []ServerRestartFault{
		{Server: 2, At: 9},
		{Server: 0, At: 3},
		{Server: 1, At: 9, Cold: true},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if !spec.HasServerRestarts() {
		t.Fatal("HasServerRestarts = false")
	}
	sched := spec.RestartSchedule()
	if len(sched) != 3 || sched[0].Server != 0 || sched[1].Server != 2 || sched[2].Server != 1 {
		t.Fatalf("schedule order %+v", sched)
	}
	// The spec's own slice is untouched.
	if spec.ServerRestarts[0].Server != 2 {
		t.Fatal("RestartSchedule mutated the spec")
	}
	var nilSpec *Spec
	if nilSpec.HasServerRestarts() || nilSpec.RestartSchedule() != nil {
		t.Fatal("nil spec should have no restarts")
	}
}

// TestWithoutClusterStripsRestartClauses: the per-server spec a fleet
// member consumes must not re-apply a server bounce.
func TestWithoutClusterStripsRestartClauses(t *testing.T) {
	spec := &Spec{
		Seed:           9,
		ServerFails:    []ServerFailFault{{Server: 0, At: 1}},
		ServerRestarts: []ServerRestartFault{{Server: 1, At: 2}},
	}
	// Only cluster-level clauses: the per-server residue is empty, nil.
	if stripped := spec.WithoutCluster(); stripped != nil {
		t.Fatalf("all-cluster spec should strip to nil, got %+v", stripped)
	}
	// With a per-server clause alongside, it survives — without the
	// cluster-level ones.
	spec.Links = []LinkFault{{Link: "rc0", Multiplier: 0.5}}
	stripped := spec.WithoutCluster()
	if stripped == nil {
		t.Fatal("spec with per-server clauses should survive stripping")
	}
	if len(stripped.ServerFails) != 0 || len(stripped.ServerRestarts) != 0 {
		t.Fatalf("cluster-level clauses leaked: %+v", stripped)
	}
	if len(stripped.Links) != 1 {
		t.Fatal("per-server clause lost in stripping")
	}
	if len(spec.ServerRestarts) != 1 {
		t.Fatal("WithoutCluster mutated the original")
	}
}
