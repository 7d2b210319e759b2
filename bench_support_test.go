package mobius

// Substrate micro-benchmarks and shared helpers for the figure suite.

import (
	"testing"

	"mobius/internal/hw"
	"mobius/internal/lp"
	"mobius/internal/partition"
	"mobius/internal/sim"
	"mobius/internal/tensor"
)

// mipNoCacheOptions forces a fresh MIP solve (Figure 12 measures solver
// wall time) while keeping the sweep small enough to benchmark.
func mipNoCacheOptions() partition.MIPOptions {
	return partition.MIPOptions{DisableCache: true, MaxStages: 8}
}

// BenchmarkSubstrate_Simulator measures the discrete-event engine on a
// contended fan-out: 64 flows across two shared root complexes.
func BenchmarkSubstrate_Simulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		rc1 := s.NewPath(s.NewResource("rc1", 13.1e9))
		rc2 := s.NewPath(s.NewResource("rc2", 13.1e9))
		for f := 0; f < 64; f++ {
			r := rc1
			if f%2 == 0 {
				r = rc2
			}
			s.Transfer(s.Name("t"), nil, r, float64(1+f)*1e8, f%3)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_Simplex measures the LP core on a schedule-shaped
// program (precedence chain plus coupling constraints).
func BenchmarkSubstrate_Simplex(b *testing.B) {
	build := func() *lp.Problem {
		const n = 80
		p := lp.NewProblem(n)
		p.SetObjectiveCoeff(n-1, 1)
		for i := 1; i < n; i++ {
			p.AddConstraint([]lp.Term{{Var: i, Coeff: 1}, {Var: i - 1, Coeff: -1}}, lp.GE, 0.25)
		}
		for i := 0; i+10 < n; i += 5 {
			p.AddConstraint([]lp.Term{{Var: i + 10, Coeff: 1}, {Var: i, Coeff: -1}}, lp.LE, 10)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve failed: %v %v", err, sol)
		}
	}
}

// BenchmarkSubstrate_MatMul measures the parallel matmul kernel at a
// transformer-ish shape.
func BenchmarkSubstrate_MatMul(b *testing.B) {
	a := tensor.New(128, 256)
	c := tensor.New(256, 128)
	for i := range a.D {
		a.D[i] = float64(i%13) * 0.1
	}
	for i := range c.D {
		c.D[i] = float64(i%7) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, c)
	}
}

// BenchmarkSubstrate_Route measures topology routing, which sits on the
// hot path of schedule construction.
func BenchmarkSubstrate_Route(b *testing.B) {
	srv, err := hw.Build(hw.Commodity(hw.RTX3090Ti, 4, 4))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		srv.Route(hw.GPUEnd(i%8), hw.GPUEnd((i+3)%8))
	}
}
