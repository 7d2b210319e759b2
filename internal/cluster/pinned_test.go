package cluster

import (
	"fmt"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// benchFleet is the fleet the benchmark's fleet workload runs: four 2+2
// servers for an hour under three 3B classes at load 4 (gold and silver
// token-budgeted, silver degrading past 45 s of queueing, best-effort
// shed past 40 s), losing server 1 at 900 s and bouncing server 0 warm at
// 1800 s. A non-empty storeRoot backs every server with a real plan
// store, as the benchmark does.
func benchFleet(seed int64, storeRoot string, cache *StepCache) Config {
	const load = 4
	mk := func(name string, slo int, rate float64) Class {
		return Class{
			Name:            name,
			SLO:             slo,
			RatePerS:        rate * load,
			Model:           model.GPT3B,
			PartitionAlgo:   partition.AlgoBalanced,
			BalancedStages:  4,
			StepsMin:        2,
			StepsMax:        3,
			CheckpointEvery: 2,
		}
	}
	gold := mk("gold", 0, 0.030)
	silver := mk("silver", 1, 0.030)
	be := mk("best-effort", 2, 0.040)
	gold.TokenRatePerS, gold.TokenBurst = 0.030*1.2, 3
	silver.TokenRatePerS, silver.TokenBurst = 0.030*1.2, 3
	silver.DegradeAfterS = 45
	be.DeadlineS = 40
	return Config{
		Servers:  4,
		Topology: hw.Commodity(hw.RTX3090Ti, 2, 2),
		Classes:  []Class{gold, silver, be},
		HorizonS: 3600,
		Seed:     seed,
		QueueCap: 6,
		Prewarm:  true,
		Faults: &fault.Spec{
			ServerFails:    []fault.ServerFailFault{{Server: 1, At: 900}},
			ServerRestarts: []fault.ServerRestartFault{{Server: 0, At: 1800}},
		},
		StoreRoot: storeRoot,
		Cache:     cache,
	}
}

// benchFleetFingerprints are the report fingerprints of benchFleet on
// seeds 16-31 (the benchmark's golden fleet seeds), the same with a
// real store and with the in-memory one.
var benchFleetFingerprints = [16]string{
	"e5ff67d0a0f109dd", "69374fb9ca59b8c0", "1bac556326ee6775", "c13be8002281563b",
	"d650a64c3cd0f522", "bfa449be0cafb17e", "e8e80ef2414fe7c4", "2a8b48e67c9f8401",
	"48fd562f6e4b1ee2", "f6437354eb540a3c", "cee6b302a7dd0be4", "9190790648fba3e0",
	"a2cca375c2aff08d", "f7d80a5ee31f105f", "cf0a47e5bb017806", "448a1e98cb30ff4d",
}

// TestClusterFingerprintsPinned is the fleet's behavioural oracle: the
// report fingerprints of the benchmark's fleet and of fleets that reach
// the rarer paths (bursty gamma arrivals, injected dispatch failures
// with breaker trips, a cold restart, the paranoid audit) are pinned to
// values recorded before the event queue and the per-class key
// precomputation replaced the heap of every event and the per-dispatch
// keying. Any change to routing, pricing or event order moves them.
func TestClusterFingerprintsPinned(t *testing.T) {
	for i, want := range benchFleetFingerprints {
		seed := int64(16 + i)
		for _, store := range []bool{true, false} {
			root := ""
			if store {
				root = t.TempDir()
			}
			rep := mustRun(t, benchFleet(seed, root, sharedCache))
			if got := rep.Fingerprint(); got != want {
				t.Errorf("bench fleet seed %d (store %v): fingerprint %s, want %s", seed, store, got, want)
			}
		}
	}

	gamma := func() Config {
		prod := cheapClass("prod", 0, model.GPT3B, 0.05)
		prod.Arrival = ArrivalGamma
		prod.GammaShape = 0.3
		batch := cheapClass("batch", 1, model.GPT8B, 0.03)
		batch.Arrival = ArrivalGamma
		batch.DeadlineS = 60
		cfg := baseConfig(prod, batch)
		cfg.Servers = 3
		cfg.HorizonS = 900
		return cfg
	}
	flaky := func() Config {
		cfg := baseConfig(cheapClass("prod", 0, model.GPT3B, 0.06), cheapClass("batch", 1, model.GPT3B, 0.04))
		cfg.Servers = 3
		cfg.HorizonS = 900
		cfg.DispatchFailProb = 0.3
		cfg.Seed = 5
		return cfg
	}
	cold := func() Config {
		cfg := restartConfig(2, fault.ServerRestartFault{Server: 1, At: 120, Cold: true, RestartLatencyS: 7})
		cfg.HorizonS = 600
		return cfg
	}
	paranoid := func() Config {
		cfg := benchFleet(3, "", sharedCache)
		cfg.Paranoid = true
		cfg.DispatchFailProb = 0.1
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
		// check asserts the path the case exists to reach was reached.
		check func(*Report) error
	}{
		{"gamma", gamma(), "49d539c49acf70e6", nil},
		{"dispatch-fail-0.3", flaky(), "503323d6b253c614", func(r *Report) error {
			if r.BreakerTrips == 0 || r.DispatchRetries == 0 {
				return fmt.Errorf("no breaker trips or retries: %d trips, %d retries", r.BreakerTrips, r.DispatchRetries)
			}
			return nil
		}},
		{"cold-restart", cold(), "085184be9d5e2cd2", func(r *Report) error {
			if r.ServerRestarts != 1 {
				return fmt.Errorf("%d restarts, want 1", r.ServerRestarts)
			}
			return nil
		}},
		{"paranoid", paranoid(), "d855f4358ba851b1", nil},
	} {
		rep := mustRun(t, c.cfg)
		if c.check != nil {
			if err := c.check(rep); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
		if got := rep.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
