// Package chaos stress-tests the end-to-end integrity layer. From a
// single seed it derives a randomized — but valid-by-construction —
// fault + corruption scenario, executes full Mobius steps under it with
// checksums on and off, and checks the global invariants that must hold
// for every seed:
//
//   - the simulator finishes (or halts) with a sane clock and
//     per-task event times (sim.CheckInvariants);
//   - traffic is conserved per link, retransmits included;
//   - with checksums on, no corruption is ever silent; with checksums
//     off, no retransmit or verification cost is ever charged and every
//     injected corruption taints at least its own delivery;
//   - replaying the same seed reproduces the run bit for bit.
//
// The harness plans once and reuses the plan across seeds, and builds
// the simulated topology and step DAG once, replaying them via sim.Reset
// for every scenario and replay — so a single chaos run is a few
// simulated steps with no construction cost, cheap enough for a fuzz
// target.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
)

// Harness executes chaos runs against one cached Mobius plan.
type Harness struct {
	Topo         *hw.Topology
	Partition    *partition.Partition
	Mapping      *mapping.Mapping
	Microbatches int

	// built is the constructed Mobius step, created on first use and
	// replayed via sim.Reset for every subsequent step: one topology and
	// DAG construction serves all seeds, scenarios and replays.
	built *pipeline.MobiusStep
}

// NewHarness plans GPT-3B on the default commodity server (2 root
// complexes x 2 RTX 3090 Ti) with a balanced 8-stage partition and cross
// mapping — the cheapest configuration that still exercises multi-stage
// prefetch, activation offload and gradient flush traffic.
func NewHarness() (*Harness, error) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	prof, err := profile.Run(model.GPT3B, topo.GPUs[0].Spec, profile.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: profile: %w", err)
	}
	part, err := partition.Balanced(partition.Params{
		Profile:   prof,
		NumGPUs:   topo.NumGPUs(),
		GPUMem:    topo.GPUMem(0) * 0.92,
		Bandwidth: 13.1e9,
	}, 8)
	if err != nil {
		return nil, fmt.Errorf("chaos: partition: %w", err)
	}
	m, err := mapping.Cross(context.Background(), topo, part.NumStages())
	if err != nil {
		return nil, fmt.Errorf("chaos: mapping: %w", err)
	}
	return &Harness{Topo: topo, Partition: part, Mapping: m, Microbatches: topo.NumGPUs()}, nil
}

// chaosMatches are the route targets a generated rule may select: every
// bandwidth resource of the harness topology, plus the wildcard.
var chaosMatches = []string{"*", "rc0", "rc1", "gpu0.link", "gpu1.link", "gpu2.link", "gpu3.link", "drambus"}

// Spec derives the fault + corruption scenario for a seed. The generator
// only emits clauses inside their documented ranges, so every generated
// spec passes Validate — asserted again on each run as a harness
// invariant. The spec's own Seed field is the chaos seed, which also
// seeds the corruption hash stream.
func (h *Harness) Spec(seed int64) *fault.Spec {
	rng := rand.New(rand.NewSource(seed))
	spec := &fault.Spec{Seed: seed}

	// 1..3 corruption rules; first match wins, so overlap is fine.
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		spec.Corruptions = append(spec.Corruptions, fault.CorruptionFault{
			Match:       chaosMatches[rng.Intn(len(chaosMatches))],
			Probability: 0.3 * rng.Float64(), // [0, 0.3): exhaustion stays rare but reachable
		})
	}
	// Link degradations: an optional whole-run (unbounded) slowdown plus
	// optional bursts of bounded windows, each on a distinct link —
	// Validate rejects overlapping windows on the same link, and an
	// unbounded window overlaps everything after it. Windows on different
	// links overlap freely in time. Every window edge is a mid-transfer
	// capacity event on one link, so bursts churn exactly the
	// component-membership state the incremental flow scheduler maintains
	// (links sharing a root complex with live traffic, links going slow
	// and recovering while other links' windows are still open).
	links := append([]string(nil), chaosMatches[1:]...)
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	if rng.Intn(2) == 0 {
		spec.Links = append(spec.Links, fault.LinkFault{
			Link:       links[0],
			Multiplier: 0.25 + 0.75*rng.Float64(),
		})
		links = links[1:]
	}
	for i, n := 0, rng.Intn(3); i < n && len(links) > 0; i++ {
		link := links[0]
		links = links[1:]
		at := 0.3 * rng.Float64()
		for w, m := 0, 1+rng.Intn(2); w < m; w++ {
			end := at + 0.01 + 0.2*rng.Float64()
			spec.Links = append(spec.Links, fault.LinkFault{
				Link:       link,
				Multiplier: 0.25 + 0.75*rng.Float64(),
				Start:      at,
				End:        end,
			})
			at = end + 0.05 + 0.1*rng.Float64()
		}
	}
	return spec
}

// RunStats summarizes one simulated step of a chaos run.
type RunStats struct {
	// StepTime is the simulated duration (elapsed time to the halt when
	// Halted).
	StepTime float64
	// Halted reports the step died with a structured sim.CorruptionError
	// (exhausted retransmit budget); Attempts is its delivery count.
	Halted   bool
	Attempts int
	// Integrity is the simulator's corruption/checksum accounting.
	Integrity sim.IntegrityStats
}

// Report is the outcome of one chaos seed: the generated scenario and
// the detected (checksums on) and exposed (checksums off) runs.
type Report struct {
	Seed     int64
	Spec     *fault.Spec
	Detected RunStats
	Exposed  RunStats
}

func (r *Report) String() string {
	return fmt.Sprintf("chaos seed %d: detected %.4fs (halted=%v, %d retransmits), exposed %.4fs (%d silent, %d tainted)",
		r.Seed, r.Detected.StepTime, r.Detected.Halted, r.Detected.Integrity.Retransmits,
		r.Exposed.StepTime, r.Exposed.Integrity.SilentCorruptions, r.Exposed.Integrity.TaintedTasks)
}

// Run executes the chaos scenario for a seed — checksums on, checksums
// off, and a bitwise replay of each — and returns a non-nil error when
// any invariant is violated.
func (h *Harness) Run(seed int64) (*Report, error) {
	spec := h.Spec(seed)
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: seed %d generated an invalid spec: %w", seed, err)
	}

	on, err := h.step(spec, true)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d (checksums on): %w", seed, err)
	}
	off, err := h.step(spec, false)
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d (checksums off): %w", seed, err)
	}

	// Detection invariants: with checksums every corruption is caught —
	// retransmitted or halted — never silent, never tainting state.
	if on.Integrity.SilentCorruptions != 0 || on.Integrity.TaintedTasks != 0 {
		return nil, fmt.Errorf("chaos: seed %d: checksums on but %d silent corruptions tainted %d tasks",
			seed, on.Integrity.SilentCorruptions, on.Integrity.TaintedTasks)
	}
	if on.Integrity.Retransmits > on.Integrity.CorruptedAttempts {
		return nil, fmt.Errorf("chaos: seed %d: %d retransmits exceed %d corrupted attempts",
			seed, on.Integrity.Retransmits, on.Integrity.CorruptedAttempts)
	}
	// Exposure invariants: without checksums nothing is verified or
	// retransmitted, and every injected corruption taints at least the
	// delivery it hit.
	if off.Integrity.Retransmits != 0 || off.Integrity.ChecksumCost != 0 || off.Integrity.RetransmitWait != 0 {
		return nil, fmt.Errorf("chaos: seed %d: checksums off yet integrity machinery ran: %+v", seed, off.Integrity)
	}
	if off.Halted {
		return nil, fmt.Errorf("chaos: seed %d: checksums off cannot halt on corruption", seed)
	}
	if off.Integrity.TaintedTasks < off.Integrity.SilentCorruptions {
		return nil, fmt.Errorf("chaos: seed %d: %d corruptions but only %d tainted tasks",
			seed, off.Integrity.SilentCorruptions, off.Integrity.TaintedTasks)
	}

	// Replay determinism: the same seed reproduces both runs bit for bit.
	for _, rerun := range []struct {
		name      string
		checksums bool
		want      RunStats
	}{{"checksums on", true, on}, {"checksums off", false, off}} {
		got, err := h.step(spec, rerun.checksums)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d replay (%s): %w", seed, rerun.name, err)
		}
		if got != rerun.want {
			return nil, fmt.Errorf("chaos: seed %d replay (%s) diverged:\n  first  %+v\n  replay %+v",
				seed, rerun.name, rerun.want, got)
		}
	}

	return &Report{Seed: seed, Spec: spec, Detected: on, Exposed: off}, nil
}

// step runs one Mobius step under the scenario and checks the simulator's
// own global invariants (clock sanity, event ordering, per-link traffic
// conservation including retransmit amplification).
func (h *Harness) step(spec *fault.Spec, checksums bool) (RunStats, error) {
	if h.built == nil {
		st, err := pipeline.BuildMobius(h.Topo, pipeline.MobiusConfig{
			Partition:    h.Partition,
			Mapping:      h.Mapping,
			Microbatches: h.Microbatches,
		})
		if err != nil {
			return RunStats{}, err
		}
		h.built = st
	}
	var cs sim.ChecksumConfig
	if checksums {
		cs = sim.ChecksumConfig{Enabled: true}
	}
	res, err := h.built.Run(spec, cs)
	if err != nil {
		return RunStats{}, err
	}
	if res.OOM {
		return RunStats{}, fmt.Errorf("unexpected OOM: %s", res.OOMCause)
	}
	if res.Lost != nil {
		return RunStats{}, fmt.Errorf("unexpected resource loss: %v", res.Lost)
	}
	if errs := res.Server.Sim.CheckInvariants(); len(errs) > 0 {
		return RunStats{}, fmt.Errorf("simulator invariants violated: %w", errors.Join(errs...))
	}
	st := RunStats{StepTime: res.StepTime, Halted: res.Corruption != nil, Integrity: res.Integrity}
	if res.Corruption != nil {
		st.Attempts = res.Corruption.Attempts
	} else if res.StepTime <= 0 {
		return RunStats{}, fmt.Errorf("completed step has non-positive duration %g", res.StepTime)
	}
	return st, nil
}
