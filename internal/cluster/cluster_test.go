package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// sharedCache amortizes step pricing across the whole test binary; the
// pricing is a pure function of its key, so sharing never changes a
// result (the determinism test asserts exactly that).
var sharedCache = NewStepCache()

func topo22() *hw.Topology { return hw.Commodity(hw.RTX3090Ti, 2, 2) }

// cheapClass is a solver-free job shape, so fleet tests price steps in
// milliseconds.
func cheapClass(name string, slo int, m model.Config, rate float64) Class {
	return Class{
		Name:           name,
		SLO:            slo,
		RatePerS:       rate,
		Model:          m,
		PartitionAlgo:  partition.AlgoBalanced,
		BalancedStages: 4,
		StepsMin:       2,
		StepsMax:       4,
	}
}

func baseConfig(classes ...Class) Config {
	return Config{
		Servers:  2,
		Topology: topo22(),
		Classes:  classes,
		HorizonS: 300,
		Seed:     7,
		paranoid: true,
		Cache:    sharedCache,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Conservation(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestClusterConservationAndFairness: a moderately loaded mixed fleet
// conserves every job and serves the classes fairly.
func TestClusterConservationAndFairness(t *testing.T) {
	cfg := baseConfig(
		cheapClass("prod", 0, model.GPT3B, 0.02),
		cheapClass("batch", 1, model.GPT8B, 0.02),
	)
	rep := mustRun(t, cfg)
	if rep.Submitted == 0 || rep.Completed == 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
	if rep.Jain <= 0 || rep.Jain > 1+1e-12 {
		t.Errorf("Jain index %g out of (0, 1]", rep.Jain)
	}
	if rep.InFlight != 0 {
		t.Errorf("drained report holds %d in-flight jobs", rep.InFlight)
	}
	if rep.Failed != 0 || rep.ServerFailures != 0 {
		t.Errorf("fault-free run failed jobs: %+v", rep)
	}
}

// TestClusterAdmissionControl: a class over its token budget is
// rejected at the door, bounded by the budget.
func TestClusterAdmissionControl(t *testing.T) {
	greedy := cheapClass("greedy", 1, model.GPT3B, 0.5) // far over fleet capacity
	greedy.TokenRatePerS = 0.01
	greedy.TokenBurst = 2
	cfg := baseConfig(greedy)
	rep := mustRun(t, cfg)
	c := rep.Classes[0]
	if c.RejectedAdmission == 0 {
		t.Fatalf("overloaded class was never rejected: %+v", c)
	}
	budget := int(cfg.HorizonS*greedy.TokenRatePerS + greedy.TokenBurst + 1)
	if c.Admitted > budget {
		t.Errorf("admitted %d jobs past the token budget %d", c.Admitted, budget)
	}
}

// TestClusterBackpressure: with admission disabled and tiny queues, an
// overloaded fleet rejects at the queues instead of buffering without
// bound.
func TestClusterBackpressure(t *testing.T) {
	cfg := baseConfig(cheapClass("flood", 0, model.GPT3B, 0.5))
	cfg.QueueCap = 2
	rep := mustRun(t, cfg)
	c := rep.Classes[0]
	if c.RejectedBackpressure == 0 {
		t.Fatalf("flooded fleet never pushed back: %+v", c)
	}
	if c.Completed == 0 {
		t.Errorf("backpressure starved the fleet entirely: %+v", c)
	}
}

// TestClusterSheddingPrefersLowSLO: under overload with deadlines, the
// high-priority class is served ahead of the low one — the low class
// sheds (and rejects) more, never the other way around.
func TestClusterSheddingPrefersLowSLO(t *testing.T) {
	prod := cheapClass("prod", 0, model.GPT3B, 0.05)
	prod.DeadlineS = 120
	batch := cheapClass("batch", 2, model.GPT3B, 0.05)
	batch.DeadlineS = 120
	cfg := baseConfig(prod, batch)
	cfg.QueueCap = 16
	rep := mustRun(t, cfg)
	p, b := rep.Classes[0], rep.Classes[1]
	if p.Submitted == 0 || b.Submitted == 0 {
		t.Fatalf("degenerate: %+v %+v", p, b)
	}
	pLoss := float64(p.Shed+p.Rejected()) / float64(p.Submitted)
	bLoss := float64(b.Shed+b.Rejected()) / float64(b.Submitted)
	if pLoss > bLoss {
		t.Errorf("high-SLO class lost %.2f of its demand, low-SLO only %.2f", pLoss, bLoss)
	}
	if b.Shed == 0 {
		t.Errorf("overloaded low-SLO class was never shed: %+v", b)
	}
	pGood := float64(p.Completed) / float64(p.Submitted)
	bGood := float64(b.Completed) / float64(b.Submitted)
	if pGood <= bGood {
		t.Errorf("goodput not ordered by SLO: prod %.2f <= batch %.2f", pGood, bGood)
	}
}

// TestClusterDegradeLadder: a patient class degrades to the greedy
// floor before it sheds.
func TestClusterDegradeLadder(t *testing.T) {
	cl := cheapClass("patient", 0, model.GPT3B, 0.2)
	cl.DegradeAfterS = 10
	cfg := baseConfig(cl)
	cfg.Servers = 1
	cfg.QueueCap = 32
	rep := mustRun(t, cfg)
	c := rep.Classes[0]
	if c.Degraded == 0 {
		t.Fatalf("no job degraded under overload with 10s patience: %+v", c)
	}
	if c.Shed != 0 {
		t.Errorf("class without a deadline was shed: %+v", c)
	}
}

// TestClusterServerLossRecovery is the tentpole property: a server
// dies mid-run, its in-flight job resumes from its last checkpoint on
// a survivor found through plan-cache affinity, and — because the
// fleet was prewarmed — the whole recovery performs zero planner
// solves beyond the prewarm itself.
func TestClusterServerLossRecovery(t *testing.T) {
	cl := cheapClass("prod", 0, model.GPT3B, 0.1)
	cl.StepsMin, cl.StepsMax = 6, 6
	cl.CheckpointEvery = 2
	cfg := baseConfig(cl)
	cfg.Servers = 3
	cfg.QueueCap = 16
	cfg.Prewarm = true
	cfg.Faults = &fault.Spec{
		ServerFails: []fault.ServerFailFault{{Server: 0, At: 120}},
	}
	rep := mustRun(t, cfg)
	c := rep.Classes[0]
	if rep.ServerFailures != 1 {
		t.Fatalf("ServerFailures = %d, want 1", rep.ServerFailures)
	}
	if c.Relands == 0 {
		t.Fatalf("server loss at 120s re-landed no jobs: %+v", rep)
	}
	if c.Completed == 0 {
		t.Fatalf("no job completed: %+v", c)
	}
	// Prewarm planned each shape once per server; everything after —
	// including every re-landing — must be cache hits.
	if rep.PlanSolves != uint64(cfg.Servers) {
		t.Errorf("fleet performed %d solves, want %d (prewarm only: re-landing is zero-solve)",
			rep.PlanSolves, cfg.Servers)
	}
	if rep.PlanHits == 0 {
		t.Errorf("no plan-cache hits in a prewarmed fleet")
	}
	// At least one re-landed job resumed from a checkpoint (not from
	// scratch) and completed.
	resumed := false
	for _, j := range rep.Jobs {
		if j.Relands > 0 && j.Outcome == "completed" && j.ResumeStep > 0 {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Errorf("no re-landed job resumed from a checkpointed step")
	}
	if c.MigrationS <= 0 {
		t.Errorf("checkpoint re-landing priced no migration time: %+v", c)
	}
}

// TestClusterAllServersDead: when the whole fleet dies, every admitted
// job fails — accounted, not silently dropped — and the run drains.
func TestClusterAllServersDead(t *testing.T) {
	cfg := baseConfig(cheapClass("prod", 0, model.GPT3B, 0.05))
	cfg.Servers = 1
	cfg.Faults = &fault.Spec{
		ServerFails: []fault.ServerFailFault{{Server: 0, At: 30}},
	}
	rep := mustRun(t, cfg)
	if rep.Failed == 0 {
		t.Fatalf("dead fleet failed no jobs: %+v", rep)
	}
	if rep.InFlight != 0 {
		t.Errorf("dead fleet did not drain: %+v", rep)
	}
}

// TestClusterDispatchFailuresTripBreaker: two server losses under a
// dense arrival stream drive the retry ladder and the per-server
// breaker. Until detection the dead servers stay routable, and with their
// queues parked they look least loaded, so fresh jobs keep dispatching
// into them.
func TestClusterDispatchFailuresTripBreaker(t *testing.T) {
	cfg := baseConfig(cheapClass("prod", 0, model.GPT3B, 0.5))
	cfg.Servers = 3
	cfg.Seed = 11
	cfg.Faults = &fault.Spec{ServerFails: []fault.ServerFailFault{{Server: 0, At: 120}, {Server: 1, At: 200}}}
	rep := mustRun(t, cfg)
	if rep.DispatchFailures == 0 || rep.DispatchRetries == 0 {
		t.Fatalf("no dispatch failed into a dead-but-undetected server: %+v", rep)
	}
	if rep.BreakerTrips == 0 {
		t.Errorf("breaker never tripped on a dead server: %+v", rep)
	}
	if rep.Completed == 0 {
		t.Errorf("retries never got a job through: %+v", rep)
	}
	// The jittered retry ladder and the breaker both feed the report:
	// pin its fingerprint.
	if got, want := rep.Fingerprint(), "8f3edb5a561740a0"; got != want {
		t.Errorf("fingerprint = %s, want %s", got, want)
	}
}

// TestClusterDeterministicReplay: the same config replays bit for bit,
// whether the step cache is cold or warm.
func TestClusterDeterministicReplay(t *testing.T) {
	mk := func(cache *StepCache) Config {
		prod := cheapClass("prod", 0, model.GPT3B, 0.04)
		prod.TokenRatePerS = 0.03
		batch := cheapClass("batch", 1, model.GPT8B, 0.03)
		batch.DeadlineS = 90
		cfg := baseConfig(prod, batch)
		cfg.Cache = cache
		cfg.Faults = &fault.Spec{ServerFails: []fault.ServerFailFault{{Server: 1, At: 150}}}
		return cfg
	}
	first := mustRun(t, mk(NewStepCache())) // cold cache
	warm := mustRun(t, mk(sharedCache))     // warm shared cache
	replay := mustRun(t, mk(sharedCache))
	if a, b := first.Fingerprint(), warm.Fingerprint(); a != b {
		t.Errorf("cold vs warm cache diverged: %s vs %s", a, b)
	}
	if a, b := warm.Fingerprint(), replay.Fingerprint(); a != b {
		t.Errorf("replay diverged: %s vs %s", a, b)
	}
}

// TestClusterAffinityRouting: once a shape is cached on one server,
// later jobs of that shape land there (cold fleet, no prewarm).
func TestClusterAffinityRouting(t *testing.T) {
	cl := cheapClass("prod", 0, model.GPT3B, 0.01) // sparse: fleet idle between jobs
	cfg := baseConfig(cl)
	cfg.Servers = 3
	rep := mustRun(t, cfg)
	if rep.Completed < 2 {
		t.Skipf("need at least 2 completions, got %d", rep.Completed)
	}
	server := -1
	for _, j := range rep.Jobs {
		if j.Outcome != "completed" {
			continue
		}
		if server == -1 {
			server = j.Server
		} else if j.Server != server {
			t.Fatalf("idle-fleet jobs of one shape spread across servers %d and %d (affinity ignored)", server, j.Server)
		}
	}
	if rep.PlanSolves != 1 {
		t.Errorf("affinity routing should solve once, got %d solves", rep.PlanSolves)
	}
}

// TestJainIndex: the fairness index on synthetic outcomes.
func TestJainIndex(t *testing.T) {
	eq := []ClassStats{
		{Submitted: 10, Completed: 5},
		{Submitted: 100, Completed: 50},
	}
	if j := jain(eq); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal goodput shares: Jain %g, want 1", j)
	}
	skew := []ClassStats{
		{Submitted: 10, Completed: 10},
		{Submitted: 10, Completed: 0},
	}
	if j := jain(skew); math.Abs(j-0.5) > 1e-12 {
		t.Errorf("one-sided service: Jain %g, want 0.5", j)
	}
}

// TestBucket: token-bucket refill and burst semantics.
func TestBucket(t *testing.T) {
	b := bucket{rate: 1, burst: 2, tokens: 2}
	if !b.take(0) || !b.take(0) {
		t.Fatal("burst tokens rejected")
	}
	if b.take(0.5) {
		t.Fatal("admitted with 0.5 tokens")
	}
	if !b.take(1.2) { // 0.5 + 0.7 refilled > 1
		t.Fatal("refilled bucket rejected")
	}
	b2 := bucket{rate: 0}
	if !b2.take(100) {
		t.Fatal("disabled bucket must admit everything")
	}
}

// TestClusterConfigValidation: the config rejects what the fleet
// cannot simulate.
func TestClusterConfigValidation(t *testing.T) {
	good := baseConfig(cheapClass("a", 0, model.GPT3B, 0.1))
	for name, mut := range map[string]func(*Config){
		"no servers": func(c *Config) { c.Servers = 0 },
		"no classes": func(c *Config) { c.Classes = nil },
		"no horizon": func(c *Config) { c.HorizonS = 0 },
		"bad rate":   func(c *Config) { c.Classes[0].RatePerS = 0 },
		"gpu fail":   func(c *Config) { c.Faults = &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 0}}} },
		"unbounded link": func(c *Config) {
			c.Faults = &fault.Spec{Links: []fault.LinkFault{{Link: "rc0", Multiplier: 0.5}}}
		},
		"fail off-fleet": func(c *Config) {
			c.Faults = &fault.Spec{ServerFails: []fault.ServerFailFault{{Server: 9, At: 1}}}
		},
		"fail past horizon": func(c *Config) {
			c.Faults = &fault.Spec{ServerFails: []fault.ServerFailFault{{Server: 0, At: 1e9}}}
		},
	} {
		cfg := good
		cfg.Classes = append([]Class(nil), good.Classes...)
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestClusterRejectsNonFinite: every non-finite float of the config and
// its fleet fault spec is an error naming its field. Each case runs
// under a deadline, since an unchecked NaN or infinite horizon or
// arrival rate spins the arrival loop forever.
func TestClusterRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	restart := func(at, latency float64) *fault.Spec {
		return &fault.Spec{ServerRestarts: []fault.ServerRestartFault{{Server: 0, At: at, RestartLatencyS: latency}}}
	}
	for _, c := range []struct {
		name, field string
		mut         func(*Config)
	}{
		{"NaN horizon", "horizon", func(c *Config) { c.HorizonS = nan }},
		{"infinite horizon", "horizon", func(c *Config) { c.HorizonS = inf }},
		{"infinite rate", "arrival rate", func(c *Config) { c.Classes[0].RatePerS = inf }},
		{"NaN rate", "arrival rate", func(c *Config) { c.Classes[0].RatePerS = nan }},
		{"NaN token rate", "token rate", func(c *Config) { c.Classes[0].TokenRatePerS = nan }},
		{"infinite token burst", "token burst", func(c *Config) { c.Classes[0].TokenBurst = inf }},
		{"NaN deadline", "deadline", func(c *Config) { c.Classes[0].DeadlineS = nan }},
		{"infinite degrade", "degrade-after", func(c *Config) { c.Classes[0].DegradeAfterS = inf }},
		{"NaN fail onset", "server_fails[0] (server 1): at_s", func(c *Config) {
			c.Faults = &fault.Spec{ServerFails: []fault.ServerFailFault{{Server: 1, At: nan}}}
		}},
		{"NaN restart onset", "server_restarts[0] (server 0): at_s", func(c *Config) { c.Faults = restart(nan, 0) }},
		{"NaN restart latency", "restart_latency_s", func(c *Config) { c.Faults = restart(10, nan) }},
		{"infinite restart latency", "restart_latency_s", func(c *Config) { c.Faults = restart(10, inf) }},
		{"NaN fault horizon", "horizon_s", func(c *Config) {
			c.Faults = &fault.Spec{HorizonS: nan, ServerFails: []fault.ServerFailFault{{Server: 1, At: 10}}}
		}},
	} {
		cfg := baseConfig(cheapClass("a", 0, model.GPT3B, 0.1))
		cfg.Classes = append([]Class(nil), cfg.Classes...)
		c.mut(&cfg)
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s: %v; want an error naming %q as not finite", c.name, err, c.field)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run still running after 10 s", c.name)
		}
	}
}

// TestClusterBoundsWork: a config whose servers or expected arrivals
// (HorizonS × Σ RatePerS) exceed MaxServers or MaxExpectedArrivals is
// refused up front with an error naming the field, and one exactly at
// either cap is accepted. The first two rows are the fleets that used
// to run away, mobius-cluster -horizon 1e12 and -servers 100000. Each
// over-cap config is checked on withDefaults before Run sees it, so a
// missing cap fails the test instead of generating 1e11 arrivals.
func TestClusterBoundsWork(t *testing.T) {
	for _, c := range []struct {
		name, field string // field "" accepts
		servers     int
		horizon     float64
	}{
		{"horizon 1e12", "HorizonS", 2, 1e12},
		{"100000 servers", "Servers", 100_000, 10},
		{"arrivals at the cap", "", 2, MaxExpectedArrivals / 0.125},
		{"arrivals past the cap", "HorizonS", 2, math.Nextafter(MaxExpectedArrivals/0.125, math.Inf(1))},
		{"servers at the cap", "", MaxServers, 10},
		{"servers past the cap", "Servers", MaxServers + 1, 10},
	} {
		// Two classes whose rates sum to 0.125/s, exact in binary.
		cfg := baseConfig(cheapClass("a", 0, model.GPT3B, 0.0625), cheapClass("b", 1, model.GPT8B, 0.0625))
		cfg.Servers, cfg.HorizonS = c.servers, c.horizon
		_, err := cfg.withDefaults()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: %v; want an error naming %s and its limit", c.name, err, c.field)
			continue
		}
		start := time.Now()
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted a config withDefaults refuses", c.name)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refused after %v, want at once", c.name, d)
		}
	}
}
