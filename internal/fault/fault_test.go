package fault

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobius/internal/hw"
)

var update = flag.Bool("update", false, "rewrite the golden .err files from current parser output")

// goldenTopo returns the topology a testdata spec is bound to in the
// Apply stage of the golden test. The default harness machine is the
// 4-GPU Topo 2+2; specs probing topology-dependent errors (failing the
// only GPU, GPU id out of range) declare their machine here.
func goldenTopo(base string) *hw.Topology {
	switch base {
	case "gpu-fail-only-gpu.json":
		return hw.Commodity(hw.RTX3090Ti, 1)
	default:
		return hw.Commodity(hw.RTX3090Ti, 2, 2)
	}
}

// TestParseJSONGolden runs every spec under testdata/ through the parser
// and, when it parses cleanly, through Apply on the spec's harness
// topology (topology-dependent errors like "no such GPU" only surface
// there). A spec with a sibling .err file must fail with exactly that
// message (the golden error a user would see); one without must parse and
// apply cleanly. Regenerate goldens with
// `go test ./internal/fault -run Golden -update`.
func TestParseJSONGolden(t *testing.T) {
	specs, err := filepath.Glob("testdata/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, path := range specs {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, perr := ParseJSON(data)
			if perr == nil {
				srv, berr := hw.Build(goldenTopo(filepath.Base(path)))
				if berr != nil {
					t.Fatal(berr)
				}
				_, perr = Apply(srv, spec)
			}
			golden := strings.TrimSuffix(path, ".json") + ".err"
			if *update {
				if perr == nil {
					os.Remove(golden)
					return
				}
				if err := os.WriteFile(golden, []byte(perr.Error()+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, gerr := os.ReadFile(golden)
			switch {
			case os.IsNotExist(gerr):
				if perr != nil {
					t.Fatalf("spec should parse, got: %v", perr)
				}
			case gerr != nil:
				t.Fatal(gerr)
			case perr == nil:
				t.Fatalf("spec should fail with %q, parsed cleanly", strings.TrimSpace(string(want)))
			case perr.Error() != strings.TrimSpace(string(want)):
				t.Fatalf("error mismatch:\n got: %s\nwant: %s", perr.Error(), strings.TrimSpace(string(want)))
			}
		})
	}
}

// TestValidSpecRoundTrips checks the documented example parses and
// fingerprints deterministically.
func TestValidSpecRoundTrips(t *testing.T) {
	data, err := os.ReadFile("testdata/degraded-rc0.json")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Empty() {
		t.Fatal("spec should not be empty")
	}
	if s1.Fingerprint() == "" || s1.Fingerprint() != s2.Fingerprint() {
		t.Fatalf("fingerprint not stable: %q vs %q", s1.Fingerprint(), s2.Fingerprint())
	}
	s2.Seed++
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatal("different specs must fingerprint differently")
	}
}

func TestNilSpecSemantics(t *testing.T) {
	var s *Spec
	if !s.Empty() {
		t.Fatal("nil spec must be empty")
	}
	if s.Fingerprint() != "" {
		t.Fatalf("nil spec fingerprint: %q", s.Fingerprint())
	}
}

func buildServer(t *testing.T) *hw.Server {
	t.Helper()
	srv, err := hw.Build(hw.Commodity(hw.RTX3090Ti, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestApplyBindsSpec checks the bookkeeping of a successful Apply: one
// capacity event per unbounded window, two per bounded one, and the
// corruption policy installed only when corruption rules exist.
func TestApplyBindsSpec(t *testing.T) {
	srv := buildServer(t)
	inj, err := Apply(srv, &Spec{Links: []LinkFault{{Link: "rc0", Multiplier: 0.25}}})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Sim.CorruptionPolicy != nil {
		t.Fatal("corruption policy installed without corruption rules")
	}
	srv = buildServer(t)
	spec := &Spec{
		Links: []LinkFault{
			{Link: "rc0", Multiplier: 0.25, Start: 0},
			{Link: "drambus", Multiplier: 0.5, Start: 1, End: 2},
		},
		Corruptions: []CorruptionFault{{Match: "*", Probability: 0.1}},
	}
	if inj, err = Apply(srv, spec); err != nil {
		t.Fatal(err)
	}
	if inj.LinkEvents != 3 {
		t.Fatalf("link events: got %d, want 3 (degrade+degrade+restore)", inj.LinkEvents)
	}
	if srv.Sim.CorruptionPolicy == nil {
		t.Fatal("corruption policy not installed")
	}
	if got := inj.String(); got != "faults: 3 link events" {
		t.Fatalf("summary: %s", got)
	}
}

// TestApplyRejectsUnknownNames checks the descriptive errors for spec
// clauses that do not match the topology.
func TestApplyRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		spec *Spec
		want string
	}{
		{&Spec{Links: []LinkFault{{Link: "rc9", Multiplier: 0.5}}}, `no resource "rc9"`},
		{&Spec{LinkFails: []LinkFailFault{{Link: "gpu9.link", At: 1}}}, `no resource "gpu9.link"`},
	}
	for _, c := range cases {
		if _, err := Apply(buildServer(t), c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
}

// TestValidateRejectsNonFinite: NaN and ±Inf fail every range check's
// comparison, so each float field is checked for finiteness first; the
// error names the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		spec  Spec
	}{
		{"horizon_s", Spec{HorizonS: nan}},
		{"links[0] (rc0): multiplier", Spec{Links: []LinkFault{{Link: "rc0", Multiplier: nan}}}},
		{"links[0] (rc0): start_s", Spec{Links: []LinkFault{{Link: "rc0", Multiplier: 0.5, Start: nan}}}},
		{"links[0] (rc0): end_s", Spec{Links: []LinkFault{{Link: "rc0", Multiplier: 0.5, End: inf}}}},
		{"corruptions[0] (*): probability", Spec{Corruptions: []CorruptionFault{{Match: "*", Probability: nan}}}},
		{"server_fails[0] (server 1): at_s", Spec{ServerFails: []ServerFailFault{{Server: 1, At: nan}}}},
		{"server_restarts[0] (server 0): at_s", Spec{ServerRestarts: []ServerRestartFault{{At: -inf}}}},
		{"server_restarts[0] (server 0): restart_latency_s", Spec{ServerRestarts: []ServerRestartFault{{At: 1, RestartLatencyS: nan}}}},
		{"gpu_fails[0] (gpu 2): at_s", Spec{GPUFails: []GPUFailFault{{GPU: 2, At: nan}}}},
		{"link_fails[0] (rc1): at_s", Spec{LinkFails: []LinkFailFault{{Link: "rc1", At: inf}}}},
	} {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field+" ") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%s: %v; want an error naming it as not finite", c.field, err)
		}
	}
}
