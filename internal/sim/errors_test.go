package sim

import (
	"errors"
	"fmt"
	"testing"
)

// TestStructuredErrorsRoundTripWrapping audits every structured error the
// simulator can return: each must survive fmt.Errorf("%w") wrapping (as
// the pipeline, core, and elastic layers do) and come back out through
// errors.As with its fields intact, and an instance must errors.Is-match
// itself through the same chain. A layer that wrapped with %v instead of
// %w would break the elastic package's failure classification.
func TestStructuredErrorsRoundTripWrapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		as   func(error) (error, bool)
	}{
		{
			"OOMError",
			&OOMError{Pool: "gpu0.mem", Task: "act", Need: 2, Capacity: 1},
			func(err error) (error, bool) { var e *OOMError; ok := errors.As(err, &e); return e, ok },
		},
		{
			"MemAccountError",
			&MemAccountError{Pool: "dram", Task: "free", Freed: 2, Below: 1},
			func(err error) (error, bool) { var e *MemAccountError; ok := errors.As(err, &e); return e, ok },
		},
		{
			"ResourceLostError",
			&ResourceLostError{Resource: "gpu1", At: 2.5, Victims: []string{"t1"}},
			func(err error) (error, bool) { var e *ResourceLostError; ok := errors.As(err, &e); return e, ok },
		},
		{
			"CorruptionError",
			&CorruptionError{Task: "CK3", At: 1.25, Attempts: 3},
			func(err error) (error, bool) { var e *CorruptionError; ok := errors.As(err, &e); return e, ok },
		},
		{
			"StallError",
			&StallError{At: 1e17, Task: "t"},
			func(err error) (error, bool) { var e *StallError; ok := errors.As(err, &e); return e, ok },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wrapped := fmt.Errorf("core: %w", fmt.Errorf("elastic: step 3: %w", c.err))
			got, ok := c.as(wrapped)
			if !ok {
				t.Fatalf("errors.As failed through double wrap for %v", c.err)
			}
			if got.Error() != c.err.Error() {
				t.Fatalf("fields lost in wrap: got %v, want %v", got, c.err)
			}
			if !errors.Is(wrapped, c.err) {
				t.Fatalf("errors.Is failed through double wrap for %v", c.err)
			}
			if c.err.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
}
