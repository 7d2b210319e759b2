package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"mobius/internal/core"
	"mobius/internal/planstore"
	"mobius/internal/plansvc"
	"mobius/internal/resil"
)

// server is one Mobius box of the fleet: a bounded queue, one job in
// flight at a time (the whole machine trains one model), its own plan
// cache (a plansvc.Service — affinity routing asks it svc.Has), and a
// dispatch circuit breaker.
type server struct {
	id  int
	svc *plansvc.Service

	// store/storeDir back the plan cache on disk when Config.StoreRoot
	// is set; a restart closes the store and reopens the directory.
	store    *planstore.Store
	storeDir string

	// retiredSolves/retiredHits accumulate the plan metrics of services
	// discarded by restarts, so the fleet report's totals span every
	// incarnation of the server.
	retiredSolves uint64
	retiredHits   uint64

	queue    []*job
	inflight *job
	parked   []*job // held between failure and detection

	// gen invalidates completion and detection events scheduled before
	// a failure or restart.
	gen      uint64
	dead     bool
	detected bool

	br resil.Breaker
}

func newServer(id int, cfg Config) (*server, error) {
	s := &server{id: id, br: newBreaker()}
	if cfg.StoreRoot == "" {
		s.svc = plansvc.New(plansvc.Config{})
		return s, nil
	}
	s.storeDir = filepath.Join(cfg.StoreRoot, fmt.Sprintf("server%d", id))
	st, err := planstore.Open(planstore.Config{Dir: s.storeDir})
	if err != nil {
		return nil, fmt.Errorf("cluster: server %d plan store: %w", id, err)
	}
	s.store = st
	s.svc = plansvc.New(plansvc.Config{Store: st})
	return s, nil
}

// retire folds the current service's plan counters into the retired
// accumulators before the service is replaced.
func (s *server) retire() {
	m := s.svc.Metrics()
	s.retiredSolves += m.Solves
	s.retiredHits += m.Hits
}

// reopen rebuilds the server's planning service across a restart. With
// a real store the dying store is drained and closed, the directory
// wiped when the bounce is cold, and the new service warm-starts from
// whatever the store replays. Without one, a warm restart retains the
// cache (the contents an intact persisted store would reload) and a
// cold restart starts a fresh service.
func (s *server) reopen(cfg Config, cold bool) error {
	if s.store == nil {
		if cold {
			s.retire()
			s.svc = plansvc.New(plansvc.Config{})
		}
		return nil
	}
	s.retire()
	s.store.Close()
	if cold {
		if err := os.RemoveAll(s.storeDir); err != nil {
			return fmt.Errorf("cluster: server %d cold restart: %w", s.id, err)
		}
	}
	st, err := planstore.Open(planstore.Config{Dir: s.storeDir})
	if err != nil {
		return fmt.Errorf("cluster: server %d restart: %w", s.id, err)
	}
	s.store = st
	s.svc = plansvc.New(plansvc.Config{Store: st})
	return nil
}

// closeStore drains and closes the backing store, if any.
func (s *server) closeStore() {
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// load is the routing pressure metric: queued plus in-flight.
func (s *server) load() int {
	n := len(s.queue)
	if s.inflight != nil {
		n++
	}
	return n
}

// popBest removes and returns the next job to run: lowest SLO number
// first, then FIFO by enqueue time, then id.
func (s *server) popBest(classes []Class) *job {
	best := 0
	for i := 1; i < len(s.queue); i++ {
		a, b := s.queue[i], s.queue[best]
		sa, sb := classes[a.class].SLO, classes[b.class].SLO
		if sa < sb || (sa == sb && (a.enqueuedAt < b.enqueuedAt ||
			(a.enqueuedAt == b.enqueuedAt && a.id < b.id))) {
			best = i
		}
	}
	j := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return j
}

// Virtual planning costs, in seconds, charged to a job at dispatch: a
// plan-cache hit, a full solve, and the greedy floor. Affinity routing
// exists to turn the middle one into the first.
const (
	planHitLatencyS    = 0.02
	planSolveLatencyS  = 5
	planGreedyLatencyS = 0.005
)

// planLatency charges the virtual planning cost of dispatching a job of
// shape sh here and makes the server's plan cache warm for its key: a
// greedy-floor (degraded) job pays the greedy latency; a cached plan
// pays a lookup; anything else pays a full solve (and is then cached,
// so the next job of this shape — or this job re-landing — hits).
func (s *server) planLatency(sh *shape, degraded bool) (float64, error) {
	if degraded {
		return planGreedyLatencyS, nil
	}
	if s.svc.Has(sh.key) {
		return planHitLatencyS, nil
	}
	if err := s.warm(sh.opts); err != nil {
		return 0, err
	}
	return planSolveLatencyS, nil
}

// warm plans opts into this server's cache.
func (s *server) warm(opts core.Options) error {
	_, err := s.svc.PlanMobius(context.Background(), opts)
	return err
}
