package sim_test

// The chaos harness stress-tests the end-to-end integrity layer. From a
// single seed it derives a randomized — but valid-by-construction —
// fault + corruption scenario, executes full Mobius steps under it with
// checksums on and off, and checks the global invariants that must hold
// for every seed:
//
//   - the simulator finishes (or halts) with a sane clock and
//     per-task event times (Sim.CheckInvariants);
//   - traffic is conserved per link, retransmits included;
//   - with checksums on, no corruption is ever silent; with checksums
//     off, no retransmit or verification cost is ever charged and every
//     injected corruption taints at least its own delivery;
//   - a second fresh build of the same seed reproduces the run bit for
//     bit.
//
// The harness plans once and reuses the plan across seeds; each step
// builds its own topology and DAG from that plan, so a single chaos run
// is a few simulated steps with no planning cost, cheap enough for a
// fuzz target. It lives in the external test package because it drives
// the simulator through pipeline, which imports sim.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/pipeline"
	"mobius/internal/profile"
	"mobius/internal/sim"
)

// chaosHarness executes chaos runs against one cached Mobius plan.
type chaosHarness struct {
	Topo         *hw.Topology
	Partition    *partition.Partition
	Mapping      *mapping.Mapping
	Microbatches int
}

// newChaosHarness plans GPT-3B on the default commodity server (2 root
// complexes x 2 RTX 3090 Ti) with a balanced 8-stage partition and cross
// mapping — the cheapest configuration that still exercises multi-stage
// prefetch, activation offload and gradient flush traffic.
func newChaosHarness() (*chaosHarness, error) {
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
	return &chaosHarness{Topo: topo, Partition: part, Mapping: m, Microbatches: topo.NumGPUs()}, nil
}

// chaosMatches are the route targets a generated rule may select: every
// bandwidth resource of the harness topology, plus the wildcard.
var chaosMatches = []string{"*", "rc0", "rc1", "gpu0.link", "gpu1.link", "gpu2.link", "gpu3.link", "drambus"}

// Spec derives the fault + corruption scenario for a seed. The generator
// only emits clauses inside their documented ranges, so every generated
// spec passes Validate — asserted again on each run as a harness
// invariant. The spec's own Seed field is the chaos seed, which also
// seeds the corruption hash stream.
func (h *chaosHarness) Spec(seed int64) *fault.Spec {
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
	// capacity event on one link, so bursts churn the flow rates mid-run
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

// chaosRunStats summarizes one simulated step of a chaos run.
type chaosRunStats struct {
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

// chaosReport is the outcome of one chaos seed: the generated scenario and
// the detected (checksums on) and exposed (checksums off) runs.
type chaosReport struct {
	Seed     int64
	Spec     *fault.Spec
	Detected chaosRunStats
	Exposed  chaosRunStats
}

func (r *chaosReport) String() string {
	return fmt.Sprintf("chaos seed %d: detected %.4fs (halted=%v, %d retransmits), exposed %.4fs (%d silent, %d tainted)",
		r.Seed, r.Detected.StepTime, r.Detected.Halted, r.Detected.Integrity.Retransmits,
		r.Exposed.StepTime, r.Exposed.Integrity.SilentCorruptions, r.Exposed.Integrity.TaintedTasks)
}

// Run executes the chaos scenario for a seed — checksums on, checksums
// off, and a second fresh build of each — and returns a non-nil error
// when any invariant is violated.
func (h *chaosHarness) Run(seed int64) (*chaosReport, error) {
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

	// Replay determinism: a second build of the same seed reproduces both
	// runs bit for bit.
	for _, rerun := range []struct {
		name      string
		checksums bool
		want      chaosRunStats
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

	return &chaosReport{Seed: seed, Spec: spec, Detected: on, Exposed: off}, nil
}

// step builds and runs one Mobius step under the scenario and checks the
// simulator's own global invariants (clock sanity, event ordering,
// per-link traffic conservation including retransmit amplification).
func (h *chaosHarness) step(spec *fault.Spec, checksums bool) (chaosRunStats, error) {
	built, err := pipeline.BuildMobius(h.Topo, pipeline.MobiusConfig{
		Partition:    h.Partition,
		Mapping:      h.Mapping,
		Microbatches: h.Microbatches,
	})
	if err != nil {
		return chaosRunStats{}, err
	}
	var cs sim.ChecksumConfig
	if checksums {
		cs = sim.ChecksumConfig{Enabled: true}
	}
	res, err := built.Run(spec, cs)
	if err != nil {
		return chaosRunStats{}, err
	}
	if res.OOM {
		return chaosRunStats{}, fmt.Errorf("unexpected OOM: %s", res.OOMCause)
	}
	if res.ResourceLost != nil {
		return chaosRunStats{}, fmt.Errorf("unexpected resource loss: %v", res.ResourceLost)
	}
	if errs := res.Server.Sim.CheckInvariants(); len(errs) > 0 {
		return chaosRunStats{}, fmt.Errorf("simulator invariants violated: %w", errors.Join(errs...))
	}
	st := chaosRunStats{StepTime: res.StepTime, Halted: res.Corruption != nil, Integrity: res.Integrity}
	if res.Corruption != nil {
		st.Attempts = res.Corruption.Attempts
	} else if res.StepTime <= 0 {
		return chaosRunStats{}, fmt.Errorf("completed step has non-positive duration %g", res.StepTime)
	}
	return st, nil
}

var (
	harnessOnce sync.Once
	harness     *chaosHarness
	harnessErr  error
)

// getHarness plans once and shares the harness across tests and fuzz
// iterations — planning dwarfs a chaos run.
func getHarness(t testing.TB) *chaosHarness {
	t.Helper()
	harnessOnce.Do(func() { harness, harnessErr = newChaosHarness() })
	if harnessErr != nil {
		t.Fatal(harnessErr)
	}
	return harness
}

// TestChaosSpecGenerator pins the generator contract: every seed yields a
// valid spec, and the same seed yields the same spec.
func TestChaosSpecGenerator(t *testing.T) {
	h := getHarness(t)
	for seed := int64(0); seed < 200; seed++ {
		spec := h.Spec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}
		if spec.Fingerprint() != h.Spec(seed).Fingerprint() {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
	}
}

// TestChaosMatrix is the deterministic chaos gate: a fixed seed range
// must satisfy every harness invariant, and collectively must actually
// exercise the integrity machinery — at least one seed retransmitting
// under checksums and at least one silently tainting without them.
func TestChaosMatrix(t *testing.T) {
	h := getHarness(t)
	var retransmits, silent, halted int
	for seed := int64(1); seed <= 12; seed++ {
		rep, err := h.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(rep)
		retransmits += rep.Detected.Integrity.Retransmits
		silent += rep.Exposed.Integrity.SilentCorruptions
		if rep.Detected.Halted {
			halted++
		}
	}
	if retransmits == 0 {
		t.Error("no seed in the matrix triggered a retransmit; the corruption rates are too low to test anything")
	}
	if silent == 0 {
		t.Error("no seed in the matrix produced a silent corruption with checksums off")
	}
	t.Logf("matrix totals: %d retransmits, %d silent corruptions, %d halted runs", retransmits, silent, halted)
}

// FuzzChaosInvariants lets the fuzzer search the seed space for a
// scenario that violates any harness invariant.
func FuzzChaosInvariants(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(-1))
	f.Add(int64(1 << 40))
	// Seeds whose generated specs churn the flow rates: bounded
	// degradation windows on multiple links overlapping in time (capacity edges landing mid-transfer while
	// other links' windows are still open), several also stacked on a
	// whole-run unbounded degradation. Found by scanning Spec output for
	// cross-link window overlap.
	for _, seed := range []int64{4, 9, 14, 17, 20, 21, 22, 31, 35, 56} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		h := getHarness(t)
		if _, err := h.Run(seed); err != nil {
			t.Fatal(err)
		}
	})
}
