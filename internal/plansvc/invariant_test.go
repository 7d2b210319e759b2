package plansvc

import "fmt"

// ConservationError checks the request conservation identity on a
// quiescent snapshot; nil means every request is accounted for exactly
// once.
func (m Metrics) ConservationError() error {
	if m.Requests != m.Hits+m.Solves+m.Coalesced+m.WaitAborts {
		return fmt.Errorf("plansvc: conservation violated: Requests %d != Hits %d + Solves %d + Coalesced %d + WaitAborts %d",
			m.Requests, m.Hits, m.Solves, m.Coalesced, m.WaitAborts)
	}
	return nil
}

// CheckInvariants verifies the structural invariants of the service's
// state: every cached plan is complete, non-degraded (fallback plans
// are never cached) and valid for its topology. The chaos harness
// (chaos_test.go) calls it after every scenario.
func (s *Service) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.cache {
		if e.plan == nil {
			return fmt.Errorf("plansvc: cache entry %s holds a nil plan", k)
		}
		if e.plan.Fallback {
			return fmt.Errorf("plansvc: degraded plan cached under %s (%s)", k, e.plan.FallbackReason)
		}
		if err := e.plan.Validate(e.topo); err != nil {
			return fmt.Errorf("plansvc: cache entry %s invalid: %w", k, err)
		}
	}
	return nil
}
