package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseJSON drives the fault-spec parser with arbitrary bytes, seeded
// from the golden-file corpus (every testdata spec, valid and invalid,
// plus the checked-in corpus under testdata/fuzz). The parser must never
// panic; every rejection must be a structured "fault:"-prefixed error;
// every accepted spec must validate, fingerprint stably, and re-parse
// from its own fingerprint to an equal fingerprint (the fingerprint is a
// cache key, so parse∘fingerprint must be idempotent).
func FuzzParseJSON(f *testing.F) {
	specs, err := filepath.Glob("testdata/*.json")
	if err != nil || len(specs) == 0 {
		f.Fatalf("no testdata seeds: %v", err)
	}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed": 1, "corruptions": [{"match": "*", "probability": 0.5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	// Specs written for the removed planner clause must fail as an unknown
	// field with a structured error, whatever the clause holds.
	f.Add([]byte(`{"seed": 7, "planner": [{"match": "*", "probability": 1.0}]}`))
	f.Add([]byte(`{"seed": 7, "planner": [{"probability": 0.1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJSON(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fault:") {
				t.Fatalf("unstructured parse error: %v", err)
			}
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseJSON accepted a spec Validate rejects: %v", verr)
		}
		fp := spec.Fingerprint()
		if fp == "" || fp != spec.Fingerprint() {
			t.Fatalf("fingerprint not stable: %q", fp)
		}
		spec2, err := ParseJSON([]byte(fp))
		if err != nil {
			t.Fatalf("fingerprint of an accepted spec does not re-parse: %v\n%s", err, fp)
		}
		if fp2 := spec2.Fingerprint(); fp2 != fp {
			t.Fatalf("fingerprint round-trip not idempotent:\n got %q\nwant %q", fp2, fp)
		}
	})
}
