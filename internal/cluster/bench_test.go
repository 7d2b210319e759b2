package cluster

import (
	"testing"

	"mobius/internal/fault"
	"mobius/internal/model"
)

// benchConfig is the fixed fleet the throughput benchmark drives: 3
// servers, a token-budgeted gold class plus a deadline-shed best-effort
// class, one mid-run server loss — the full ladder on every iteration.
func benchConfig(cache *StepCache) Config {
	gold := cheapClass("gold", 0, model.GPT3B, 0.06)
	gold.TokenRatePerS, gold.TokenBurst = 0.05, 3
	be := cheapClass("best-effort", 2, model.GPT3B, 0.08)
	be.DeadlineS = 40
	cfg := baseConfig(gold, be)
	cfg.Servers = 3
	cfg.HorizonS = 600
	cfg.Prewarm = true
	cfg.paranoid = false
	cfg.Cache = cache
	cfg.Faults = &fault.Spec{ServerFails: []fault.ServerFailFault{{Server: 0, At: 200}}}
	return cfg
}

// BenchmarkClusterThroughput measures fleet-simulation throughput in
// processed jobs per wall-clock second at a fixed fleet size, with the
// step cache warm (the steady state of a sweep): admission, routing,
// dispatch, one server loss and its re-landings, drain and report.
func BenchmarkClusterThroughput(b *testing.B) {
	cache := NewStepCache()
	cfg := benchConfig(cache)
	rep, err := Run(cfg) // warm the cache outside the timed region
	if err != nil {
		b.Fatal(err)
	}
	jobs := rep.Submitted
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkAdmissionDecision measures the per-job admission decision:
// one token-bucket refill-and-take in virtual time. This is the
// fast-path cost every arrival pays before any routing happens.
func BenchmarkAdmissionDecision(b *testing.B) {
	cl := Class{TokenRatePerS: 1e6, TokenBurst: 4}
	bk := newBucket(cl)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-6
		if !bk.take(now) {
			b.Fatal("saturated bucket rejected at its own refill rate")
		}
	}
}
