package sim

import "fmt"

// This file is the silent-data-corruption surface of the simulator. A
// CorruptionPolicy (installed by the fault package, like RetryPolicy)
// decides per delivery attempt whether a transfer's payload arrives
// corrupted. What happens next depends on whether end-to-end checksums
// are enabled:
//
//   - Checksums on: the corruption is detected at the receiver and the
//     payload is retransmitted after an exponential backoff, re-paying
//     the per-byte checksum cost and re-flowing the bytes across the
//     path (the retransmit traffic is real traffic). A transfer whose
//     whole retransmit budget delivers corrupted halts the run with a
//     structured *CorruptionError at the instant the last attempt
//     completes.
//   - Checksums off: the corrupted payload is accepted silently. The
//     transfer and, transitively, every task that depends on it are
//     tainted; the run completes with a wrong answer, which is exactly
//     the exposure experiments want to price against the detection cost.
//
// Like every fault knob, the policy must be a deterministic function of
// the task (seed-hash, never call order), so corrupted replays are
// bit-identical.

// CorruptionPolicy decides whether delivery attempt `attempt` (0 is the
// first transmission) of transfer t arrives corrupted. Policies must be
// deterministic functions of (t, attempt) — see RetryPolicy for why.
type CorruptionPolicy func(t *Task, attempt int) bool

// Checksum model defaults.
const (
	// DefaultChecksumCostPerByte prices the end-to-end CRC at ~25 GB/s of
	// host-side throughput — one core's worth of hardware-assisted CRC32C,
	// paid once per delivery attempt.
	DefaultChecksumCostPerByte = 1.0 / 25e9
	// defaultMaxRetransmits bounds detected-corruption retransmits per
	// transfer when the config leaves MaxRetransmits 0.
	defaultMaxRetransmits = 2
	// defaultRetransmitBackoff is the initial wait before a retransmit,
	// in seconds, when the config leaves Backoff 0.
	defaultRetransmitBackoff = 1e-3
)

// ChecksumConfig configures end-to-end transfer checksums. The zero
// value disables them (corruption, if injected, is silent).
type ChecksumConfig struct {
	// Enabled turns on detection: every transfer pays CostPerByte of
	// setup latency per delivery attempt, and corrupted attempts are
	// retransmitted instead of accepted.
	Enabled bool
	// CostPerByte is the checksum compute latency in seconds per payload
	// byte per attempt (0 means DefaultChecksumCostPerByte).
	CostPerByte float64
	// MaxRetransmits bounds retransmits per transfer (0 means
	// defaultMaxRetransmits). A transfer with MaxRetransmits+1 corrupted
	// attempts halts the run with a *CorruptionError.
	MaxRetransmits int
	// Backoff is the wait before the k-th retransmit, doubling per
	// attempt like RetryPolicy's model (0 means defaultRetransmitBackoff).
	Backoff Time
}

func (c ChecksumConfig) costPerByte() float64 {
	if c.CostPerByte > 0 {
		return c.CostPerByte
	}
	return DefaultChecksumCostPerByte
}

func (c ChecksumConfig) maxRetransmits() int {
	if c.MaxRetransmits > 0 {
		return c.MaxRetransmits
	}
	return defaultMaxRetransmits
}

func (c ChecksumConfig) backoff() Time {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return defaultRetransmitBackoff
}

// CorruptionError is the structured failure Run returns when a transfer
// exhausts its retransmit budget with every attempt corrupted. Detection
// happens end-to-end, so At is the completion instant of the final
// attempt, not the onset of the first corruption.
type CorruptionError struct {
	// Task is the name of the transfer whose payload never arrived intact.
	Task string
	// At is the simulated time the final corrupted attempt completed.
	At Time
	// Attempts is the total delivery attempts, all corrupted
	// (1 + MaxRetransmits).
	Attempts int
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("sim: transfer %q corrupted on all %d delivery attempts (retransmit budget exhausted at t=%.6g)",
		e.Task, e.Attempts, e.At)
}

// IntegrityStats aggregates the corruption/detection bookkeeping of one
// run. All counters are deterministic for a fixed spec and schedule.
type IntegrityStats struct {
	// CorruptedAttempts counts delivery attempts that arrived corrupted
	// (detected or not).
	CorruptedAttempts int
	// Retransmits counts retransmissions performed after detection
	// (checksums on). Equal to CorruptedAttempts unless a transfer
	// exhausted its budget and halted the run.
	Retransmits int
	// RetransmitWait is the total backoff wait injected before
	// retransmits, in seconds.
	RetransmitWait Time
	// ChecksumCost is the total checksum compute latency paid, in
	// seconds (every attempt of every transfer while checksums are on).
	ChecksumCost Time
	// SilentCorruptions counts corrupted payloads accepted because
	// checksums were off.
	SilentCorruptions int
	// TaintedTasks counts finished tasks transitively downstream of a
	// silently corrupted transfer (the corrupted transfer included).
	TaintedTasks int
}

// Integrity returns the run's corruption/detection bookkeeping.
func (s *Sim) Integrity() IntegrityStats { return s.integrity }

// injectCorruption consults the corruption policy for a starting transfer
// and returns the extra setup latency (checksum compute for retransmitted
// attempts plus backoff waits). The first attempt's checksum cost is
// charged unconditionally by the caller. Must only be called for
// transfers with payload. All bookkeeping is recorded on the task itself;
// finalizeIntegrity derives the aggregate when the run completes.
func (s *Sim) injectCorruption(t *Task) (extra Time) {
	if s.Checksums.Enabled {
		max := s.Checksums.maxRetransmits()
		n := 0
		for a := 0; a <= max && s.CorruptionPolicy(t, a); a++ {
			n++
		}
		if n == 0 {
			return 0
		}
		retr := n
		if retr > max {
			// Every attempt in the budget corrupted: the final completion
			// surfaces the structured error (see complete).
			retr = max
			t.corruptExhausted = true
		}
		t.retransmits = retr
		t.corruptAttempts = n
		wait := s.Checksums.backoff() * Time((uint64(1)<<retr)-1)
		ck := float64(retr) * t.bytes * s.Checksums.costPerByte()
		return wait + Time(ck)
	}
	if s.CorruptionPolicy(t, 0) {
		t.tainted = true
		t.corruptAttempts = 1
		t.silentCorrupt = true
	}
	return 0
}

// finalizeIntegrity derives the run-level IntegrityStats from the
// per-task counters, scanning tasks in id order. Summation order is
// therefore a property of the DAG, not of event interleaving — the
// incremental and oracle schedulers produce bitwise-identical aggregates.
func (s *Sim) finalizeIntegrity() {
	st := IntegrityStats{}
	if s.Checksums.Enabled || s.CorruptionPolicy != nil {
		bo := s.Checksums.backoff()
		cpb := s.Checksums.costPerByte()
		for _, t := range s.tasks {
			if t.corruptAttempts > 0 {
				st.CorruptedAttempts += t.corruptAttempts
				if t.silentCorrupt {
					st.SilentCorruptions++
				} else {
					st.Retransmits += t.retransmits
					st.RetransmitWait += bo * Time((uint64(1)<<t.retransmits)-1)
				}
			}
			if t.checksumCharged {
				st.ChecksumCost += Time(float64(1+t.retransmits) * t.bytes * cpb)
			}
			if t.tainted && t.state == stateFinished {
				st.TaintedTasks++
			}
		}
	}
	s.integrity = st
}
