package fault

import (
	"testing"
)

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
		Stragglers:  []StragglerFault{{GPU: 1, Throughput: 0.5}},
	}
	c := s.WithoutCluster()
	if c == nil || len(c.ServerFails) != 0 || c.HorizonS != 0 {
		t.Fatalf("fleet clauses not stripped: %+v", c)
	}
	if len(c.Stragglers) != 1 || c.Seed != 11 {
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
