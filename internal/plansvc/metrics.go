package plansvc

// Metrics counts what the service did. Every counter is cumulative; a
// Snapshot is taken under the service lock, so the conservation identity
//
//	Requests == Hits + Led + Coalesced + WaitAborts
//
// holds exactly on any snapshot taken while no request is in flight
// (each request terminates through exactly one of the four).
type Metrics struct {
	// Requests counts planning requests that passed canonicalization.
	Requests uint64
	// Hits served a validated cached plan directly.
	Hits uint64
	// Led counts requests that performed the solve for their key.
	Led uint64
	// Coalesced counts requests served by another request's in-flight
	// solve (single-flight waiters).
	Coalesced uint64
	// WaitAborts counts waiters whose own context died before the
	// leader finished.
	WaitAborts uint64
	// Handoffs counts leaders whose context died mid-solve and who
	// handed the key to a waiter instead of publishing a degraded
	// result.
	Handoffs uint64

	// ValidateDrops counts cached entries dropped because Plan.Validate
	// failed on a hit (corrupt or stale entry degraded to a recompute).
	ValidateDrops uint64

	// Solves counts inner planner invocations (full MIP + mapping).
	Solves uint64
	// DeadlineFallbacks counts solves that came back deadline-degraded
	// (Plan.Fallback set by the planner).
	DeadlineFallbacks uint64
	// GreedyFallbacks counts requests answered by the ladder's greedy
	// floor without attempting a solve (breaker open, or deadline
	// already expired).
	GreedyFallbacks uint64

	// BreakerTrips counts closed->open transitions; BreakerProbes
	// counts half-open probe solves; BreakerShorted counts requests
	// short-circuited to greedy while the breaker was open.
	BreakerTrips   uint64
	BreakerProbes  uint64
	BreakerShorted uint64

	// CacheEntries is the live entry count at snapshot time.
	CacheEntries uint64

	// WarmStartEntries counts cache entries adopted from the persistent
	// store when the service started; WarmHits counts cache hits served
	// by such an entry (a subset of Hits) — the restarts-for-free
	// signal. Both are 0 without a configured store.
	WarmStartEntries uint64
	WarmHits         uint64
}

// Metrics returns a consistent snapshot of the counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m
	m.CacheEntries = uint64(len(s.cache))
	return m
}
