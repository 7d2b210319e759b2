// Package fault implements deterministic, seed-driven fault injection for
// the simulated hardware. A Spec declares degraded conditions — link
// bandwidth windows, straggler GPUs, transient transfer failures, memory
// pressure — and Apply binds it to a built hw.Server, translating each
// clause into the simulator's low-level knobs (scheduled capacity events,
// engine throughput multipliers, retry policies, pool resizing).
//
// Determinism: every effect is a pure function of the spec. Transient
// failures are decided by resil.Hash01, a splitmix64 hash of (seed, task
// id, rule, attempt) and the only randomness in the package, never by a
// shared RNG stream, so the injected retries do not depend on the order
// the simulator happens to start transfers in — two runs of the same DAG
// under the same spec produce identical schedules, and adding an
// unrelated fault clause never reshuffles the failures of an existing
// one.
package fault

import (
	"fmt"
	"sort"

	"mobius/internal/hw"
	"mobius/internal/resil"
	"mobius/internal/sim"
)

// Spec is a declarative fault scenario applied to one simulated server.
type Spec struct {
	// Seed drives the transient-failure hash; different seeds produce
	// statistically independent failure patterns.
	Seed int64 `json:"seed"`

	Links       []LinkFault        `json:"links,omitempty"`
	Stragglers  []StragglerFault   `json:"stragglers,omitempty"`
	Transient   []TransientFault   `json:"transient,omitempty"`
	MemPressure []MemPressureFault `json:"mem_pressure,omitempty"`

	// Corruptions are silent-data-corruption events on transfers (see
	// corruption.go); detection depends on the run's checksum config.
	Corruptions []CorruptionFault `json:"corruptions,omitempty"`

	// HorizonS, when positive, bounds the simulated window the spec was
	// written for: permanent-failure onsets must land inside [0, HorizonS).
	// Zero means unbounded.
	HorizonS float64 `json:"horizon_s,omitempty"`

	// GPUFails and LinkFails are permanent failures (see permanent.go);
	// the run halts at the onset with a structured sim.ResourceLostError.
	GPUFails  []GPUFailFault  `json:"gpu_fails,omitempty"`
	LinkFails []LinkFailFault `json:"link_fails,omitempty"`

	// ServerFails are fleet-level failure domains (see server.go): whole
	// servers dropping out of a cluster run. The per-server Apply ignores
	// them — they are consumed by internal/cluster.
	ServerFails []ServerFailFault `json:"server_fails,omitempty"`

	// StoreFaults inject I/O failures (clean write failures, torn
	// writes, device latency) into the plan store's write-behind path
	// (see store.go); they are consumed by internal/planstore.
	StoreFaults []StoreFault `json:"store_faults,omitempty"`

	// ServerRestarts bounce whole fleet servers: crash at At, rejoin
	// warm or cold after RestartLatencyS (see store.go); consumed by
	// internal/cluster.
	ServerRestarts []ServerRestartFault `json:"server_restarts,omitempty"`
}

// LinkFault degrades one bandwidth resource to a fraction of its nominal
// capacity during [Start, End) (End 0 means "until the run completes").
type LinkFault struct {
	// Link is the simulator resource name: "rc0", "gpu3.link",
	// "drambus", "ssd", "gpu0.nvlink".
	Link string `json:"link"`
	// Multiplier scales the nominal capacity; (0, 1].
	Multiplier float64 `json:"multiplier"`
	// Start and End bound the degradation window in simulated seconds.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s,omitempty"`
}

// StragglerFault slows one GPU's compute engine to a fraction of its
// nominal throughput for the whole run.
type StragglerFault struct {
	GPU int `json:"gpu"`
	// Throughput is the compute-speed multiplier; (0, 1].
	Throughput float64 `json:"throughput"`
}

// TransientFault injects per-transfer failure/retry cycles. Each attempt
// of a matching transfer fails independently with Probability; the k-th
// retry waits Backoff*2^(k-1) milliseconds, and the total wait is added
// to the transfer's setup latency (and reported as retry latency).
type TransientFault struct {
	// Match selects transfers whose route crosses the named resource
	// ("rc0", "gpu2.link", ...); "*" matches every transfer. The first
	// matching rule in spec order decides a transfer's fate.
	Match string `json:"match"`
	// Probability of each attempt failing; [0, 1).
	Probability float64 `json:"probability"`
	// BackoffMS is the initial retry backoff in milliseconds.
	BackoffMS float64 `json:"backoff_ms"`
	// MaxRetries caps injected failures per transfer (default 4).
	MaxRetries int `json:"max_retries,omitempty"`
}

// defaultMaxRetries caps injected failures when a rule leaves
// MaxRetries 0.
const defaultMaxRetries = 4

// maxRetriesCap bounds the exponential-backoff series; beyond this the
// injected latency dwarfs any step time and the spec is almost surely a
// mistake.
const maxRetriesCap = 16

// MemPressureFault withholds bytes from a memory pool, modeling co-tenant
// allocations. An allocation larger than the shrunken pool surfaces as a
// structured sim.OOMError instead of a deadlock.
type MemPressureFault struct {
	// Pool is the simulator pool name: "dram" or "gpu0.mem".
	Pool string `json:"pool"`
	// ReserveBytes is withheld from the pool's capacity; > 0.
	ReserveBytes float64 `json:"reserve_bytes"`
}

// Validate checks the spec against its documented ranges. It does not
// check names against a topology — that happens in Apply, where the
// server is known.
func (s *Spec) Validate() error {
	byLink := map[string][]LinkFault{}
	for i, l := range s.Links {
		if l.Link == "" {
			return fmt.Errorf("fault: links[%d]: missing link name", i)
		}
		if l.Multiplier <= 0 || l.Multiplier > 1 {
			return fmt.Errorf("fault: links[%d] (%s): multiplier %g out of range (0, 1]", i, l.Link, l.Multiplier)
		}
		if l.Start < 0 {
			return fmt.Errorf("fault: links[%d] (%s): negative start %g", i, l.Link, l.Start)
		}
		if l.End != 0 && l.End <= l.Start {
			return fmt.Errorf("fault: links[%d] (%s): window [%g, %g) is empty", i, l.Link, l.Start, l.End)
		}
		byLink[l.Link] = append(byLink[l.Link], l)
	}
	// Overlapping windows on one link would make the restore capacity
	// ambiguous; reject them.
	for link, ws := range byLink {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		for i := 1; i < len(ws); i++ {
			prev := ws[i-1]
			if prev.End == 0 || ws[i].Start < prev.End {
				return fmt.Errorf("fault: link %q has overlapping degradation windows ([%g, %s) and [%g, ...))",
					link, prev.Start, endLabel(prev.End), ws[i].Start)
			}
		}
	}
	for i, g := range s.Stragglers {
		if g.GPU < 0 {
			return fmt.Errorf("fault: stragglers[%d]: negative gpu %d", i, g.GPU)
		}
		if g.Throughput <= 0 || g.Throughput > 1 {
			return fmt.Errorf("fault: stragglers[%d] (gpu %d): throughput %g out of range (0, 1]", i, g.GPU, g.Throughput)
		}
	}
	for i, tr := range s.Transient {
		if tr.Match == "" {
			return fmt.Errorf("fault: transient[%d]: missing match", i)
		}
		if tr.Probability < 0 || tr.Probability >= 1 {
			return fmt.Errorf("fault: transient[%d] (%s): probability %g out of range [0, 1)", i, tr.Match, tr.Probability)
		}
		if tr.Probability > 0 && tr.BackoffMS <= 0 {
			return fmt.Errorf("fault: transient[%d] (%s): backoff_ms must be positive", i, tr.Match)
		}
		if tr.MaxRetries < 0 || tr.MaxRetries > maxRetriesCap {
			return fmt.Errorf("fault: transient[%d] (%s): max_retries %d out of range [0, %d]", i, tr.Match, tr.MaxRetries, maxRetriesCap)
		}
	}
	for i, m := range s.MemPressure {
		if m.Pool == "" {
			return fmt.Errorf("fault: mem_pressure[%d]: missing pool name", i)
		}
		if m.ReserveBytes <= 0 {
			return fmt.Errorf("fault: mem_pressure[%d] (%s): reserve_bytes %g must be positive", i, m.Pool, m.ReserveBytes)
		}
	}
	if err := s.validateCorruptions(); err != nil {
		return err
	}
	if err := s.validateServers(); err != nil {
		return err
	}
	if err := s.validateRestarts(); err != nil {
		return err
	}
	if err := s.validateStore(); err != nil {
		return err
	}
	return s.validatePermanent()
}

func endLabel(end float64) string {
	if end == 0 {
		return "inf"
	}
	return fmt.Sprintf("%g", end)
}

// Empty reports whether the spec injects nothing.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.Links) == 0 && len(s.Stragglers) == 0 && len(s.Transient) == 0 &&
		len(s.MemPressure) == 0 && len(s.Corruptions) == 0 &&
		len(s.GPUFails) == 0 && len(s.LinkFails) == 0 && len(s.ServerFails) == 0 &&
		len(s.StoreFaults) == 0 && len(s.ServerRestarts) == 0)
}

// Injection is the record of a spec bound to one server: what was applied
// and, after the simulation ran, what the transient-failure policy
// injected. One Injection belongs to one Sim and is not safe for
// concurrent use (the simulator itself is single-goroutine).
type Injection struct {
	// Spec is the applied scenario.
	Spec *Spec

	// LinkEvents counts scheduled capacity changes (degrade + restore).
	LinkEvents int
	// Stragglers counts slowed compute engines.
	Stragglers int
	// PoolsSqueezed counts shrunken memory pools.
	PoolsSqueezed int
	// PermanentFailures counts scheduled permanent failure events.
	PermanentFailures int

	// RetriedTransfers counts transfers that failed at least once.
	RetriedTransfers int
	// Retries is the total number of injected failed attempts.
	Retries int
	// RetryLatency is the total backoff wait injected, in seconds.
	RetryLatency float64

	// Corruptions counts delivery attempts the corruption policy
	// corrupted (detected or not — see sim.IntegrityStats for the split).
	Corruptions int
}

// String summarizes the injection for CLI output.
func (inj *Injection) String() string {
	s := fmt.Sprintf("faults: %d link events, %d stragglers, %d pools squeezed; %d transfers retried (%d retries, +%.1f ms backoff)",
		inj.LinkEvents, inj.Stragglers, inj.PoolsSqueezed, inj.RetriedTransfers, inj.Retries, inj.RetryLatency*1e3)
	if inj.Corruptions > 0 {
		s += fmt.Sprintf("; %d corrupted deliveries", inj.Corruptions)
	}
	if inj.PermanentFailures > 0 {
		s += fmt.Sprintf("; %d permanent failures scheduled", inj.PermanentFailures)
	}
	return s
}

// Apply validates spec and binds it to srv: capacity windows are scheduled
// on the named resources, straggler multipliers set on compute engines,
// the retry policy installed on the simulator, and memory pools shrunk.
// It must be called after hw.Build and before Sim.Run.
func Apply(srv *hw.Server, spec *Spec) (*Injection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	inj := &Injection{Spec: spec}

	for i, l := range spec.Links {
		res := srv.ResourceByName(l.Link)
		if res == nil {
			return nil, fmt.Errorf("fault: links[%d]: no resource %q on topology %q (have %v)",
				i, l.Link, srv.Topo.Name, srv.ResourceNames())
		}
		nominal := res.Capacity()
		srv.Sim.ScheduleCapacity(res, l.Start, nominal*l.Multiplier)
		inj.LinkEvents++
		if l.End > 0 {
			srv.Sim.ScheduleCapacity(res, l.End, nominal)
			inj.LinkEvents++
		}
	}

	for i, g := range spec.Stragglers {
		if g.GPU >= len(srv.ComputeEngines) {
			return nil, fmt.Errorf("fault: stragglers[%d]: gpu %d out of range (topology %q has %d GPUs)",
				i, g.GPU, srv.Topo.Name, len(srv.ComputeEngines))
		}
		srv.ComputeEngines[g.GPU].SetThroughput(g.Throughput)
		inj.Stragglers++
	}

	for i, m := range spec.MemPressure {
		pool := srv.PoolByName(m.Pool)
		if pool == nil {
			return nil, fmt.Errorf("fault: mem_pressure[%d]: no pool %q on topology %q", i, m.Pool, srv.Topo.Name)
		}
		left := pool.Capacity() - m.ReserveBytes
		if left <= 0 {
			return nil, fmt.Errorf("fault: mem_pressure[%d]: reserving %.3g bytes empties pool %q (capacity %.3g)",
				i, m.ReserveBytes, m.Pool, pool.Capacity())
		}
		pool.SetCapacity(left)
		inj.PoolsSqueezed++
	}

	if err := applyPermanent(srv, spec, inj); err != nil {
		return nil, err
	}

	if len(spec.Transient) > 0 {
		srv.Sim.RetryPolicy = inj.retryPolicy
	}
	if len(spec.Corruptions) > 0 {
		srv.Sim.CorruptionPolicy = inj.corruptionPolicy
	}
	return inj, nil
}

// retryPolicy implements sim.RetryPolicy: the first rule matching the
// transfer's route decides its failures, drawn from the deterministic
// per-(seed, task, attempt) hash.
func (inj *Injection) retryPolicy(t *sim.Task) (int, sim.Time) {
	for ri, rule := range inj.Spec.Transient {
		if !matchesRoute(rule.Match, t.Path()) {
			continue
		}
		if rule.Probability <= 0 {
			return 0, 0
		}
		max := rule.MaxRetries
		if max == 0 {
			max = defaultMaxRetries
		}
		fails := 0
		for a := 0; a < max; a++ {
			if resil.Hash01(inj.Spec.Seed, uint64(t.ID()), uint64(ri), uint64(a)) >= rule.Probability {
				break
			}
			fails++
		}
		if fails > 0 {
			inj.RetriedTransfers++
			inj.Retries += fails
			backoff := rule.BackoffMS * 1e-3
			inj.RetryLatency += backoff * float64((uint64(1)<<fails)-1)
		}
		return fails, sim.Time(rule.BackoffMS * 1e-3)
	}
	return 0, 0
}

func matchesRoute(match string, path []sim.PathElem) bool {
	if match == "*" {
		return true
	}
	for _, pe := range path {
		if pe.Res.Name() == match {
			return true
		}
	}
	return false
}
