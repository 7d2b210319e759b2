package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"mobius/internal/core"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/plansvc"
)

// clusterHarness stress-tests the fleet simulator the way plansvc's
// planning harness stresses the service: from a single seed it derives
// a whole cluster scenario — fleet size, tenant classes with Poisson arrival
// rates and admission budgets, server losses and bounces — runs it with
// the paranoid per-event audit on, and checks the invariants that must
// hold for every seed:
//
//   - job conservation, fleet-wide and per class: every submitted job
//     is accounted as exactly one of completed, rejected, shed or
//     failed on the drained report (no accepted job silently dropped);
//   - the Jain fairness index lies in [1/n, 1];
//   - failure accounting: server-loss counts match the scenario, a
//     loss-free scenario re-lands nothing, and a prewarmed fleet
//     performs exactly one solve per (server, distinct shape) no
//     matter what fails — re-landing is zero-solve;
//   - replaying the seed reproduces the full report fingerprint bit
//     for bit, cold or warm step cache.
//
// The concurrent fan-out runs many seeds in parallel against one
// shared StepCache — the -race surface for the pricing layer.
type clusterHarness struct {
	// Cache is shared across every scenario the harness runs; pricing
	// is pure, so sharing is invisible to results (asserted by the
	// replay check, which mixes cold and warm executions).
	Cache *StepCache

	// StoreScratch, when set, backs restart scenarios with real
	// on-disk plan stores: every other restart seed runs with a fresh
	// store root under this directory (one per execution, removed
	// afterwards), so the warm-rejoin path exercises persist, close,
	// reopen and directory replay instead of the in-memory shortcut.
	// Empty keeps every scenario memory-only.
	StoreScratch string

	menu []Class
	topo *hw.Topology
}

// newClusterHarness builds the default harness: solver-free job shapes
// on the 2+2 commodity box, so a seed costs milliseconds after the
// first pricing of each shape.
func newClusterHarness() *clusterHarness {
	return &clusterHarness{
		Cache: NewStepCache(),
		topo:  hw.Commodity(hw.RTX3090Ti, 2, 2),
		menu: []Class{
			{Model: model.GPT3B, PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4},
			{Model: model.GPT8B, PartitionAlgo: partition.AlgoBalanced, BalancedStages: 4},
			{Model: model.GPT3B, PartitionAlgo: partition.AlgoMinStage},
		},
	}
}

// ClusterScenario derives the fleet configuration for a seed. Every
// parameter stays inside the config's documented ranges, so the
// scenario always validates — asserted again per run.
func (h *clusterHarness) ClusterScenario(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Servers:  2 + rng.Intn(3),
		Topology: h.topo,
		HorizonS: float64(200 + rng.Intn(400)),
		Seed:     seed,
		QueueCap: 2 + rng.Intn(7),
		Prewarm:  rng.Intn(2) == 0,
		paranoid: true,
		Cache:    h.Cache,
	}
	nClasses := 2 + rng.Intn(2)
	for i := 0; i < nClasses; i++ {
		cl := h.menu[rng.Intn(len(h.menu))]
		cl.Name = fmt.Sprintf("t%d", i)
		cl.SLO = i
		cl.RatePerS = 0.01 + 0.11*rng.Float64()
		cl.StepsMin = 1 + rng.Intn(2)
		cl.StepsMax = cl.StepsMin + rng.Intn(3)
		cl.CheckpointEvery = rng.Intn(4)
		if rng.Intn(2) == 0 {
			cl.TokenRatePerS = cl.RatePerS * (0.4 + 0.5*rng.Float64())
		}
		if rng.Intn(2) == 0 {
			cl.DeadlineS = float64(30 + rng.Intn(90))
		}
		if rng.Intn(2) == 0 {
			cl.DegradeAfterS = float64(20 + rng.Intn(60))
		}
		cfg.Classes = append(cfg.Classes, cl)
	}
	spec := &fault.Spec{Seed: seed}
	order := rng.Perm(cfg.Servers)
	if n := rng.Intn(3); n > 0 && n < cfg.Servers {
		for i := 0; i < n; i++ {
			spec.ServerFails = append(spec.ServerFails, fault.ServerFailFault{
				Server: order[i],
				At:     cfg.HorizonS * (0.1 + 0.6*rng.Float64()),
			})
		}
		order = order[n:]
	}
	// Optional bounces on servers that do not fail permanently. A
	// prewarmed fleet only bounces warm, preserving the exact zero-solve
	// invariant through the restart; a cold fleet may bounce cold too.
	if len(order) > 0 && rng.Intn(2) == 0 {
		for i, n := 0, 1+rng.Intn(2); i < n && i < len(order); i++ {
			rf := fault.ServerRestartFault{
				Server:          order[i],
				At:              cfg.HorizonS * (0.1 + 0.6*rng.Float64()),
				RestartLatencyS: 1 + 7*rng.Float64(),
			}
			if !cfg.Prewarm && rng.Intn(2) == 0 {
				rf.Cold = true
			}
			spec.ServerRestarts = append(spec.ServerRestarts, rf)
		}
	}
	if !spec.Empty() {
		cfg.Faults = spec
	}
	return cfg
}

// clusterReport is the outcome of one cluster-chaos seed.
type clusterReport struct {
	Seed   int64
	Report *Report
}

func (r *clusterReport) String() string {
	rep := r.Report
	return fmt.Sprintf("cluster chaos seed %d: %d servers, %d jobs (%d done, %d rej, %d shed, %d failed), %d server losses, %d retries, %d breaker trips, Jain %.3f",
		r.Seed, rep.Servers, rep.Submitted, rep.Completed, rep.Rejected, rep.Shed, rep.Failed, rep.ServerFailures,
		rep.DispatchRetries, rep.BreakerTrips, rep.Jain)
}

// RunCluster executes one seed: serial run, invariant checks, and a
// bitwise replay. A non-nil error means an invariant was violated.
func (h *clusterHarness) RunCluster(seed int64) (*clusterReport, error) {
	cfg := h.ClusterScenario(seed)
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("chaos: seed %d generated an invalid fleet spec: %w", seed, err)
		}
	}
	// Every other restart scenario runs over real on-disk stores; each
	// execution gets its own fresh root, so the replay's bitwise match
	// also proves disk persistence is invisible to the simulation.
	useDisk := h.StoreScratch != "" && cfg.Faults.HasServerRestarts() && seed%2 == 0
	runOnce := func() (*Report, error) {
		if !useDisk {
			return Run(cfg)
		}
		root, err := os.MkdirTemp(h.StoreScratch, "cluster-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
		c := cfg
		c.StoreRoot = root
		return Run(c)
	}
	first, err := runOnce()
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	if err := h.checkClusterInvariants(cfg, first); err != nil {
		return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
	}
	replay, err := runOnce()
	if err != nil {
		return nil, fmt.Errorf("chaos: seed %d replay: %w", seed, err)
	}
	if a, b := first.Fingerprint(), replay.Fingerprint(); a != b {
		return nil, fmt.Errorf("chaos: seed %d replay diverged: %s vs %s", seed, a, b)
	}
	return &clusterReport{Seed: seed, Report: first}, nil
}

// checkClusterInvariants asserts the fleet identities on a drained
// report.
func (h *clusterHarness) checkClusterInvariants(cfg Config, rep *Report) error {
	if err := rep.Conservation(); err != nil {
		return err
	}
	n := 0
	for _, c := range rep.Classes {
		if c.Submitted > 0 {
			n++
		}
	}
	if n > 0 && (rep.Jain < 1/float64(n)-1e-9 || rep.Jain > 1+1e-9) {
		return fmt.Errorf("Jain index %g outside [1/%d, 1]", rep.Jain, n)
	}
	wantFails, wantRestarts := 0, 0
	if cfg.Faults != nil {
		wantFails = len(cfg.Faults.ServerFails)
		wantRestarts = len(cfg.Faults.ServerRestarts)
	}
	if rep.ServerFailures != wantFails {
		return fmt.Errorf("ServerFailures %d, scenario declared %d", rep.ServerFailures, wantFails)
	}
	if rep.ServerRestarts != wantRestarts {
		return fmt.Errorf("ServerRestarts %d, scenario declared %d", rep.ServerRestarts, wantRestarts)
	}
	relands := 0
	for _, c := range rep.Classes {
		relands += c.Relands
	}
	if wantFails == 0 && wantRestarts == 0 && relands != 0 {
		return fmt.Errorf("loss-free scenario re-landed %d job(s)", relands)
	}
	if cfg.Prewarm {
		// Restart scenarios on a prewarmed fleet are warm-only by
		// construction, so the zero-solve identity holds through every
		// bounce: re-admission never re-solves.
		if want := uint64(cfg.Servers) * uint64(h.distinctShapes(cfg)); rep.PlanSolves != want {
			return fmt.Errorf("prewarmed fleet performed %d solves, want exactly %d (servers x distinct shapes)",
				rep.PlanSolves, want)
		}
	}
	if rep.BreakerTrips > 0 && rep.DispatchFailures == 0 {
		return fmt.Errorf("breaker tripped %d time(s) without a dispatch failure", rep.BreakerTrips)
	}
	return nil
}

// distinctShapes counts the distinct plan keys among the scenario's
// classes — what a prewarmed server solves once each.
func (h *clusterHarness) distinctShapes(cfg Config) int {
	seen := map[plansvc.Key]bool{}
	for _, cl := range cfg.Classes {
		opts := core.Options{
			Model:          cl.Model,
			Topology:       cfg.Topology,
			PartitionAlgo:  cl.PartitionAlgo,
			BalancedStages: cl.BalancedStages,
		}
		k, err := plansvc.KeyOf(opts)
		if err != nil {
			continue
		}
		seen[k] = true
	}
	return len(seen)
}

// RunClusterConcurrent fans seeds out over goroutines sharing the
// harness cache — the -race surface for the shared pricing layer. Each
// seed's own run stays single-goroutine (that is the simulator's
// contract); the concurrency is across scenarios.
func (h *clusterHarness) RunClusterConcurrent(seeds []int64, conc int) error {
	if conc <= 0 {
		conc = 4
	}
	sem := make(chan struct{}, conc)
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, seed int64) {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = h.RunCluster(seed)
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestClusterChaosMatrix sweeps seeds through the cluster harness:
// each derives a fleet scenario (2-4 servers, 2-3 tenant classes with
// Poisson arrivals, token budgets, deadlines, degrade patience, up to
// two server losses and up to two bounces), runs it with the paranoid
// per-event audit, checks conservation / fairness / failure-accounting
// invariants, and replays it bitwise.
func TestClusterChaosMatrix(t *testing.T) {
	h := newClusterHarness()
	h.StoreScratch = t.TempDir()
	sawFaults, sawRelands, sawRejections := false, false, false
	sawRestarts, sawWarmRestart := false, false
	sawRetries, sawTrips := false, false
	for seed := int64(1); seed <= 24; seed++ {
		rep, err := h.RunCluster(seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(rep)
		if rep.Report.ServerFailures > 0 {
			sawFaults = true
		}
		if rep.Report.ServerRestarts > 0 {
			sawRestarts = true
			if h.ClusterScenario(seed).Prewarm {
				sawWarmRestart = true
			}
		}
		if rep.Report.Rejected > 0 {
			sawRejections = true
		}
		if rep.Report.DispatchRetries > 0 {
			sawRetries = true
		}
		if rep.Report.BreakerTrips > 0 {
			sawTrips = true
		}
		for _, c := range rep.Report.Classes {
			if c.Relands > 0 {
				sawRelands = true
			}
		}
	}
	// The matrix must actually exercise the interesting paths; a sweep
	// of quiet scenarios proves nothing.
	if !sawFaults {
		t.Error("no seed produced a server failure; widen the scenario space")
	}
	if !sawRelands {
		t.Error("no seed re-landed a job after a server loss; widen the scenario space")
	}
	if !sawRejections {
		t.Error("no seed rejected a job; widen the scenario space")
	}
	if !sawRestarts {
		t.Error("no seed bounced a server; widen the scenario space")
	}
	if !sawWarmRestart {
		t.Error("no seed bounced a prewarmed server, so the fleet zero-solve-through-restart identity went untested")
	}
	if !sawRetries {
		t.Error("no seed retried a dispatch into a dead-but-undetected server; widen the scenario space")
	}
	if !sawTrips {
		t.Error("no seed tripped a dispatch breaker; widen the scenario space")
	}
}

// TestClusterChaosConcurrent runs a block of seeds in parallel against
// one shared StepCache — the data-race surface for the pricing layer
// under `go test -race`. Each seed still checks its own invariants and
// bitwise replay, so a cache corruption shows up as a divergence even
// without the race detector.
func TestClusterChaosConcurrent(t *testing.T) {
	h := newClusterHarness()
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(100 + i)
	}
	if err := h.RunClusterConcurrent(seeds, 4); err != nil {
		t.Fatal(err)
	}
}
