package plansvc

import (
	"context"
	"testing"

	"mobius/internal/core"
	"mobius/internal/model"
)

// BenchmarkPlanCacheHit is the steady-state planning latency of a
// warmed service: canonicalization + validated cache lookup.
func BenchmarkPlanCacheHit(b *testing.B) {
	svc := New(Config{})
	opts := balancedOpts(model.GPT3B)
	if _, err := svc.PlanMobius(context.Background(), opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.PlanMobius(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanKey is the canonicalization cost alone.
func BenchmarkPlanKey(b *testing.B) {
	opts := balancedOpts(model.GPT15B)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KeyOf(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanGreedyFloor is the fleet's greedy floor: a full greedy
// plan (profile + greedy partition + sequential mapping), what
// internal/cluster prices a job with once it queued past its class's
// DegradeAfterS.
func BenchmarkPlanGreedyFloor(b *testing.B) {
	opts := balancedOpts(model.GPT8B)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyPlan(opts, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
