package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ParseJSON decodes a fault spec from JSON and validates it. Unknown
// fields are rejected so a typo in a spec file ("multipler") fails loudly
// instead of silently injecting nothing.
//
// Example spec:
//
//	{
//	  "seed": 42,
//	  "links": [
//	    {"link": "rc0", "multiplier": 0.25, "start_s": 0},
//	    {"link": "gpu2.link", "multiplier": 0.5, "start_s": 0.1, "end_s": 0.4}
//	  ],
//	  "corruptions": [{"match": "drambus", "probability": 0.05}]
//	}
func ParseJSON(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("fault: parse spec: %w", err)
	}
	// A spec file holds exactly one JSON object.
	if dec.More() {
		return nil, fmt.Errorf("fault: parse spec: trailing data after the spec object")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Fingerprint returns a stable identity string for the spec, suitable as
// a cache-key component so faulted runs never collide with nominal ones.
// The nil spec fingerprints to "".
func (s *Spec) Fingerprint() string {
	if s == nil {
		return ""
	}
	// Struct fields marshal in declaration order, so the encoding is
	// deterministic for a given spec value.
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	return string(b)
}
