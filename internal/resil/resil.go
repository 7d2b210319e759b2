// Package resil holds the one copy of each resilience primitive the
// fleet simulator and the fault injector share: the splitmix64 decision
// hash behind every seed-driven choice, the jittered exponential backoff
// ladder of the fleet's dispatch retries, and the closed/open/half-open
// circuit breaker of its per-server dispatch, on virtual float seconds.
// Callers keep their own salts, units and clocks; the bits of every
// decision come from here.
package resil

import "math"

// golden is the splitmix64 increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// Mix folds vals into x with one splitmix64 round per value: add the
// value plus the golden increment, then the standard 64-bit finalizer.
// Mix(x, 0) is the plain splitmix64 step of x.
func Mix(x uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		x += v + golden
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// Unit maps x to a dyadic rational in [0, 1) from its top 53 bits.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Hash01 maps (seed, vals...) to a uniform float64 in [0, 1): the
// decision stream of every seed-driven fault, dispatch and jitter.
func Hash01(seed int64, vals ...uint64) float64 {
	return Unit(Mix(uint64(seed)^golden, vals...))
}

// Backoff is the wait before retry k (k = 0 for the first retry): base
// doubled k times, capped at limit, then stretched by a jitter in
// [1, 1.5) from frac in [0, 1). Units are the caller's; every doubling
// and the cap are exact in float64, so integer callers get back the
// value their own arithmetic would give.
func Backoff(base, limit float64, k int, frac float64) float64 {
	return min(base*math.Ldexp(1, k), limit) * (1 + 0.5*frac)
}
