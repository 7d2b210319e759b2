// Package cluster simulates a multi-tenant fleet of Mobius servers
// under a stream of fine-tuning jobs, on one shared virtual clock. It
// closes the overload → admit → queue → degrade → shed ladder at fleet
// scope, the way internal/plansvc closes it for a single planning
// request:
//
//   - token-bucket admission control with per-SLO-class budgets: a
//     class that exhausts its budget is rejected at the door, so one
//     tenant's burst cannot starve another's steady trickle;
//   - bounded per-server queues with backpressure: when every queue is
//     full the job is rejected rather than buffered without bound;
//   - deadline-based load shedding at dequeue, and degradation to the
//     planner's greedy floor for jobs that waited past their class's
//     patience — reject, queue, degrade, shed, in that order;
//   - dispatch retries with exponential backoff and a per-server
//     circuit breaker, so a dead-but-undetected or flaky server is
//     routed around instead of hammered;
//   - server-loss failure domains: fault.Spec's server_fails clauses
//     drop whole servers mid-run; in-flight work resumes from its last
//     checkpoint on a survivor, priced through the same
//     checkpoint-migration machinery as internal/elastic, and lands on
//     the server whose plan cache already holds its plan (zero-solve
//     when the fleet was prewarmed).
//
// Determinism: the event loop is a single goroutine over (time, seq)
// ordered events — the pre-sorted arrivals merged with a heap of
// everything else; arrival processes and step counts come from per-class
// seeded streams, and every tie is broken by construction order — the
// same Config replays the same Report bit for bit. The chaos harness
// (internal/chaos) asserts this, plus the job-conservation identity
//
//	Submitted == Completed + Rejected + Shed + Failed + InFlight
//
// on a seed-driven matrix of overload and server-loss scenarios.
package cluster

import (
	"fmt"

	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/resil"
)

// Class is one tenant class: an arrival process, a job shape, an
// admission budget and an SLO.
type Class struct {
	// Name labels the class in reports.
	Name string
	// SLO is the service priority; 0 is the highest. Dequeue order is
	// SLO first, then FIFO — under overload the ladder sheds the
	// lowest classes first because they wait longest.
	SLO int

	// Arrival selects the interarrival process: "poisson" (default) or
	// "gamma" (bursty; see GammaShape). RatePerS is the mean arrival
	// rate in jobs per virtual second.
	Arrival  string
	RatePerS float64
	// GammaShape is the gamma shape parameter k (default 0.5); the
	// coefficient of variation is 1/sqrt(k), so k < 1 means burstier
	// than Poisson at the same mean rate.
	GammaShape float64

	// Model and the planning knobs fix the job shape. PartitionAlgo
	// defaults to the core default (the MIP); simulations at fleet
	// scale want a cheap algorithm (partition.AlgoBalanced et al).
	Model          model.Config
	PartitionAlgo  string
	BalancedStages int
	Microbatches   int
	// StepsMin/StepsMax bound the per-job fine-tuning step count,
	// drawn uniformly from the class stream (defaults 1/StepsMin).
	StepsMin, StepsMax int
	// CheckpointEvery writes a consistent snapshot after every k-th
	// step (0 disables); it is what a server loss can resume from.
	CheckpointEvery int

	// TokenRatePerS and TokenBurst are the class's admission budget: a
	// token bucket refilled continuously in virtual time, one token
	// per job. Rate 0 disables admission control for the class (every
	// job is admitted — the overload baseline). Burst defaults to
	// max(1, 2*rate).
	TokenRatePerS float64
	TokenBurst    float64

	// DeadlineS bounds a dispatch's queueing delay: a job that waited
	// longer is shed at dequeue instead of run (0 disables).
	// DegradeAfterS is the softer rung: past it the job still runs,
	// but on the planner's greedy floor instead of a solved plan
	// (0 disables).
	DeadlineS     float64
	DegradeAfterS float64
}

func (c Class) withDefaults(i int) (Class, error) {
	if c.Name == "" {
		c.Name = fmt.Sprintf("class%d", i)
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Arrival != ArrivalPoisson && c.Arrival != ArrivalGamma {
		return c, fmt.Errorf("cluster: class %q: unknown arrival process %q (want %q or %q)",
			c.Name, c.Arrival, ArrivalPoisson, ArrivalGamma)
	}
	if c.RatePerS <= 0 {
		return c, fmt.Errorf("cluster: class %q: arrival rate %g must be positive", c.Name, c.RatePerS)
	}
	if c.GammaShape <= 0 {
		c.GammaShape = 0.5
	}
	if c.SLO < 0 {
		return c, fmt.Errorf("cluster: class %q: negative SLO %d", c.Name, c.SLO)
	}
	if c.StepsMin <= 0 {
		c.StepsMin = 1
	}
	if c.StepsMax < c.StepsMin {
		c.StepsMax = c.StepsMin
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("cluster: class %q: negative checkpoint interval %d", c.Name, c.CheckpointEvery)
	}
	if c.TokenRatePerS < 0 || c.TokenBurst < 0 {
		return c, fmt.Errorf("cluster: class %q: negative admission budget", c.Name)
	}
	if c.TokenRatePerS > 0 && c.TokenBurst == 0 {
		c.TokenBurst = 2 * c.TokenRatePerS
		if c.TokenBurst < 1 {
			c.TokenBurst = 1
		}
	}
	if c.DeadlineS < 0 || c.DegradeAfterS < 0 {
		return c, fmt.Errorf("cluster: class %q: negative deadline", c.Name)
	}
	return c, nil
}

// Arrival process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
)

// Config describes one fleet run.
type Config struct {
	// Servers is the fleet size; every server runs Topology (default:
	// the 2+2 commodity box).
	Servers  int
	Topology *hw.Topology
	// Classes are the tenant classes sharing the fleet.
	Classes []Class
	// HorizonS bounds the arrival window in virtual seconds; jobs
	// admitted before the horizon drain to completion after it.
	HorizonS float64
	// Seed drives every stochastic stream (arrivals, step counts,
	// dispatch-failure hashes). Same seed, same Report, bit for bit.
	Seed int64

	// QueueCap bounds each server's queue (default 8); a fleet of full
	// queues pushes back by rejecting. Re-landed jobs are exempt —
	// they already spent their admission token.
	QueueCap int
	// DispatchAttempts bounds attempts per job routing round (default
	// 4); past it the job fails.
	DispatchAttempts int
	// BreakerThreshold consecutive dispatch failures trip a server's
	// circuit breaker open for BreakerCooldownS of virtual time
	// (defaults 3, 30); while open the router skips the server, then
	// probes it half-open.
	BreakerThreshold int
	BreakerCooldownS float64
	// DispatchFailProb injects transient dispatch failures on healthy
	// servers, decided by a deterministic per-(job, server, attempt)
	// hash — the chaos knob that exercises retry and breaker paths
	// without killing anything.
	DispatchFailProb float64
	// DetectLatencyS is the failure-detection window (default 2): a
	// dead server stays in the routing tables that long, so dispatches
	// keep failing into it (and tripping its breaker) until detection
	// reroutes its queue and in-flight job.
	DetectLatencyS float64

	// Virtual planning costs charged to a job at dispatch: a plan-cache
	// hit, a full solve, and the greedy floor (defaults 0.02, 5,
	// 0.005). Affinity routing exists to turn the middle one into the
	// first.
	PlanHitLatencyS    float64
	PlanSolveLatencyS  float64
	PlanGreedyLatencyS float64

	// Faults is the fleet fault scenario. ServerFails clauses are
	// consumed here (whole servers dropping), as are ServerRestarts
	// (servers bouncing: crash, then rejoin after RestartLatencyS);
	// the per-server clauses that survive WithoutCluster (stragglers,
	// unbounded link degradation, transients, memory pressure) hold on
	// every step of every server. Permanent GPU/link failures and
	// corruptions are the single-server elastic/integrity domain and
	// are rejected.
	Faults *fault.Spec

	// StoreRoot, when set, backs every server's plan cache with a real
	// on-disk planstore under StoreRoot/serverN: prewarmed and solved
	// plans persist write-behind, and a server_restarts bounce closes
	// the dying store, reopens the directory and warm-starts the new
	// service from it — the end-to-end crash/restart path. When empty
	// the fleet simulates an always-intact store: a warm restart
	// retains the cache contents (exactly what a faultless persisted
	// store would reload) and a cold restart discards them.
	StoreRoot string

	// RestartLatencyS is the default downtime of a server_restarts
	// bounce whose clause leaves RestartLatencyS 0 (default 5).
	RestartLatencyS float64

	// Prewarm plans every class's shape on every server at t=0, so
	// first dispatches — and re-landings after a server loss — are
	// cache hits: the zero-solve recovery path.
	Prewarm bool

	// Paranoid audits the job-conservation identity against every
	// job's actual state after every event, not just at the end.
	Paranoid bool

	// Cache shares step-time pricing across runs (optional); the chaos
	// matrix reuses one so a thousand scenarios price each distinct
	// (plan, checkpoint, degradation) combination once.
	Cache *StepCache
}

func (c Config) withDefaults() (Config, error) {
	if c.Servers <= 0 {
		return c, fmt.Errorf("cluster: servers must be positive (got %d)", c.Servers)
	}
	if c.Topology == nil {
		c.Topology = hw.Commodity(hw.RTX3090Ti, 2, 2)
	}
	if len(c.Classes) == 0 {
		return c, fmt.Errorf("cluster: at least one class is required")
	}
	cls := make([]Class, len(c.Classes))
	for i := range c.Classes {
		cc, err := c.Classes[i].withDefaults(i)
		if err != nil {
			return c, err
		}
		cls[i] = cc
	}
	c.Classes = cls
	if c.HorizonS <= 0 {
		return c, fmt.Errorf("cluster: horizon must be positive (got %g)", c.HorizonS)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8
	}
	if c.DispatchAttempts <= 0 {
		c.DispatchAttempts = 4
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldownS <= 0 {
		c.BreakerCooldownS = 30
	}
	if c.DispatchFailProb < 0 || c.DispatchFailProb >= 1 {
		return c, fmt.Errorf("cluster: dispatch failure probability %g out of range [0, 1)", c.DispatchFailProb)
	}
	if c.DetectLatencyS <= 0 {
		c.DetectLatencyS = 2
	}
	if c.PlanHitLatencyS <= 0 {
		c.PlanHitLatencyS = 0.02
	}
	if c.PlanSolveLatencyS <= 0 {
		c.PlanSolveLatencyS = 5
	}
	if c.PlanGreedyLatencyS <= 0 {
		c.PlanGreedyLatencyS = 0.005
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, err
		}
		if len(c.Faults.GPUFails) > 0 || len(c.Faults.LinkFails) > 0 {
			return c, fmt.Errorf("cluster: permanent GPU/link failures are the single-server elastic domain; a fleet scenario uses server_fails")
		}
		if len(c.Faults.Corruptions) > 0 {
			return c, fmt.Errorf("cluster: corruption clauses are the single-server integrity domain")
		}
		for i, l := range c.Faults.Links {
			if l.Start > 0 || l.End > 0 {
				return c, fmt.Errorf("cluster: links[%d] (%s): windowed link faults use single-step time; use an unbounded window", i, l.Link)
			}
		}
		for _, sf := range c.Faults.ServerFails {
			if sf.Server >= c.Servers {
				return c, fmt.Errorf("cluster: server_fails names server %d of a %d-server fleet", sf.Server, c.Servers)
			}
			if sf.At >= c.HorizonS {
				return c, fmt.Errorf("cluster: server %d fails at %gs, past the %gs horizon", sf.Server, sf.At, c.HorizonS)
			}
		}
		for _, rf := range c.Faults.ServerRestarts {
			if rf.Server >= c.Servers {
				return c, fmt.Errorf("cluster: server_restarts names server %d of a %d-server fleet", rf.Server, c.Servers)
			}
			if rf.At >= c.HorizonS {
				return c, fmt.Errorf("cluster: server %d restarts at %gs, past the %gs horizon", rf.Server, rf.At, c.HorizonS)
			}
		}
	}
	if c.RestartLatencyS <= 0 {
		c.RestartLatencyS = 5
	}
	if c.Cache == nil {
		c.Cache = NewStepCache()
	}
	return c, nil
}

// Event kinds, for dispatch only: at equal virtual time an arrival runs
// before any other event, and the others run in push (seq) order.
type eventKind int

const (
	evArrival eventKind = iota
	evRetry
	evComplete
	evServerFail
	evDetect
	evRestartDown
	evRestartUp
)

type event struct {
	at   float64
	seq  uint64
	kind eventKind
	job  *job
	srv  int
	gen  uint64
}

// run is the mutable state of one fleet simulation.
type run struct {
	cfg     Config
	now     float64
	events  eventQueue
	servers []*server
	buckets []bucket
	// shapes holds each class's planning options and their key,
	// computed once per run; jobs refer to theirs by class index.
	shapes []shape
	jobs   []job
	stats  []ClassStats
	// stepSpec is the per-server fault scenario every step runs under,
	// and stepFaults its fingerprint, the pricing caches' fault key.
	stepSpec   *fault.Spec
	stepFaults string
	restarts   map[int]fault.ServerRestartFault
	rep        *Report
	nEvents    int
}

// Run executes the fleet scenario and returns its report. The returned
// error is a configuration or simulation-infrastructure failure; job
// outcomes — including every job of a fully dead fleet failing — are
// the report's to tell.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	shapes, err := classShapes(cfg)
	if err != nil {
		return nil, err
	}
	stepSpec := cfg.Faults.WithoutCluster()
	r := &run{cfg: cfg, shapes: shapes, stepSpec: stepSpec, stepFaults: stepSpec.Fingerprint(),
		restarts: map[int]fault.ServerRestartFault{}}
	r.rep = &Report{Servers: cfg.Servers, HorizonS: cfg.HorizonS, Seed: cfg.Seed}

	for i := 0; i < cfg.Servers; i++ {
		s, err := newServer(i, cfg)
		if err != nil {
			return nil, err
		}
		r.servers = append(r.servers, s)
	}
	defer func() {
		for _, s := range r.servers {
			s.closeStore()
		}
	}()
	for _, cl := range cfg.Classes {
		r.buckets = append(r.buckets, newBucket(cl))
		r.stats = append(r.stats, ClassStats{Name: cl.Name, SLO: cl.SLO})
	}
	if cfg.Prewarm {
		if err := r.prewarm(); err != nil {
			return nil, err
		}
	}

	r.jobs = generateJobs(cfg)
	r.events.arrivals = r.jobs
	if cfg.Faults != nil {
		for _, sf := range cfg.Faults.ServerFailures() {
			r.events.push(event{at: sf.At, kind: evServerFail, srv: sf.Server})
		}
		for _, rf := range cfg.Faults.RestartSchedule() {
			r.restarts[rf.Server] = rf
			r.events.push(event{at: rf.At, kind: evRestartDown, srv: rf.Server})
		}
	}

	for {
		e, ok := r.events.pop()
		if !ok {
			break
		}
		r.now = e.at
		r.nEvents++
		if err := r.handle(e); err != nil {
			return nil, err
		}
		if cfg.Paranoid {
			if err := r.audit(); err != nil {
				return nil, fmt.Errorf("cluster: paranoid audit after event %d (t=%.6f): %w", r.nEvents, r.now, err)
			}
		}
	}
	r.finish()
	return r.rep, nil
}

func (r *run) handle(e event) error {
	switch e.kind {
	case evArrival:
		return r.arrive(e.job)
	case evRetry:
		return r.route(e.job)
	case evComplete:
		r.complete(r.servers[e.srv], e.gen)
		return nil
	case evServerFail:
		r.serverFail(r.servers[e.srv])
		return nil
	case evDetect:
		return r.detect(r.servers[e.srv], e.gen)
	case evRestartDown:
		r.restartDown(r.servers[e.srv])
		return nil
	case evRestartUp:
		return r.restartUp(r.servers[e.srv])
	}
	return fmt.Errorf("cluster: unknown event kind %d", e.kind)
}

// arrive runs the admission gate and routes the job into the fleet.
func (r *run) arrive(j *job) error {
	st := &r.stats[j.class]
	st.Submitted++
	if !r.buckets[j.class].take(r.now) {
		st.RejectedAdmission++
		j.state = jsRejected
		return nil
	}
	st.Admitted++
	return r.route(j)
}

func (r *run) allDead() bool {
	for _, s := range r.servers {
		if !s.dead {
			return false
		}
	}
	return true
}

// route places a job on a server: plan-cache affinity first, then
// least load, skipping known-dead and breaker-open servers and (for
// fresh jobs) full queues. A routed dispatch can still fail — into a
// dead-but-undetected server, or by injected transient failure — which
// burns the timeout, backs off, and feeds the server's breaker.
func (r *run) route(j *job) error {
	best, bestAff, bestLoad := -1, false, 0
	for _, s := range r.servers {
		if s.detected || !s.br.Routable(r.now) {
			continue
		}
		if !j.reland && s.load() >= r.cfg.QueueCap {
			continue
		}
		aff := s.svc.Has(r.shapes[j.class].key)
		load := s.load()
		switch {
		case best == -1, aff && !bestAff:
		case aff == bestAff && load < bestLoad:
		default:
			continue
		}
		best, bestAff, bestLoad = s.id, aff, load
	}
	if best == -1 {
		if r.allDead() {
			r.fail(j)
			return nil
		}
		if !j.reland {
			// Backpressure: every routable queue is full.
			r.stats[j.class].RejectedBackpressure++
			j.state = jsRejected
			return nil
		}
		// A re-landing job with nowhere to go right now (breakers open,
		// detection pending): retry after a backoff.
		return r.retryOrFail(j)
	}

	s := r.servers[best]
	s.br.Allow(r.now)
	if s.dead || r.transientFail(j, s) {
		r.rep.DispatchFailures++
		if s.br.Failure(r.now) {
			r.rep.BreakerTrips++
		}
		return r.retryOrFail(j)
	}
	s.br.Success()
	j.attempts = 0
	j.enqueuedAt = r.now
	j.state = jsQueued
	s.queue = append(s.queue, j)
	return r.kick(s)
}

func (r *run) retryOrFail(j *job) error {
	j.attempts++
	if j.attempts >= r.cfg.DispatchAttempts {
		r.fail(j)
		return nil
	}
	r.rep.DispatchRetries++
	j.state = jsRetry
	r.events.push(event{at: r.now + dispatchTimeoutS + r.backoff(j), kind: evRetry, job: j})
	return nil
}

// backoff is exponential in the attempt with a deterministic jitter in
// [1, 1.5) derived from (seed, job, attempt).
func (r *run) backoff(j *job) float64 {
	frac := resil.Hash01(r.cfg.Seed, saltBackoff, uint64(j.id), uint64(j.attempts))
	return resil.Backoff(backoffBaseS, backoffMaxS, j.attempts-1, frac)
}

// transientFail decides the injected dispatch failure for this attempt.
func (r *run) transientFail(j *job, s *server) bool {
	p := r.cfg.DispatchFailProb
	return p > 0 && resil.Hash01(r.cfg.Seed, saltDispatch, uint64(j.id), uint64(s.id), uint64(j.attempts)) < p
}

func (r *run) fail(j *job) {
	r.stats[j.class].Failed++
	j.state = jsFailed
}

// kick starts the server's next job when it is idle: dequeue best
// (SLO, then FIFO), shed past-deadline work, degrade past-patience
// work to the greedy floor, price the service timeline and schedule
// completion.
func (r *run) kick(s *server) error {
	for s.inflight == nil && !s.dead && len(s.queue) > 0 {
		j := s.popBest(r.cfg.Classes)
		cl := r.cfg.Classes[j.class]
		st := &r.stats[j.class]
		waited := r.now - j.enqueuedAt
		if cl.DeadlineS > 0 && waited > cl.DeadlineS {
			st.Shed++
			j.state = jsShed
			continue
		}
		degraded := cl.DegradeAfterS > 0 && waited > cl.DegradeAfterS
		if degraded && !j.degraded {
			j.degraded = true
			st.Degraded++
		}
		st.waitSamples = append(st.waitSamples, waited)

		sh := &r.shapes[j.class]
		planLat, err := s.planLatency(r.cfg, sh, j.degraded)
		if err != nil {
			return err
		}
		times, err := r.cfg.Cache.StepTimes(s.svc, sh.opts, sh.key, cl.CheckpointEvery, j.degraded, r.stepSpec, r.stepFaults)
		if err != nil {
			return err
		}
		mig := 0.0
		if j.reland && j.resumeStep > 0 {
			if mig, err = r.cfg.Cache.Migration(r.cfg.Topology, r.stepSpec, r.stepFaults, cl.Model.ModelStatesBytes()); err != nil {
				return err
			}
			st.MigrationS += mig
		}
		j.times, j.every = times, cl.CheckpointEvery
		j.execStart = r.now + planLat + mig
		j.server = s.id
		if j.startedAt < 0 {
			j.startedAt = r.now
		}
		j.state = jsRunning
		s.inflight = j
		end := j.execStart + execSeconds(j)
		r.events.push(event{at: end, kind: evComplete, srv: s.id, gen: s.gen})
		j.endAt = end
	}
	return nil
}

// execSeconds prices the remaining steps: resumeStep+1..steps, with
// the checkpointed step time on every every-th step.
func execSeconds(j *job) float64 {
	n := j.steps - j.resumeStep
	total := float64(n) * j.times.Plain
	if j.every > 0 {
		ck := j.steps/j.every - j.resumeStep/j.every
		total += float64(ck) * (j.times.Ckpt - j.times.Plain)
	}
	return total
}

func (r *run) complete(s *server, gen uint64) {
	if s.gen != gen || s.inflight == nil {
		return // stale: the server died after this was scheduled
	}
	j := s.inflight
	s.inflight = nil
	j.state = jsCompleted
	j.endAt = r.now
	r.stats[j.class].Completed++
	// Ignoring the error: the queue was already priced when its jobs
	// were enqueued, so kick can only repeat earlier pricing.
	_ = r.kick(s)
}

// serverFail drops a server permanently; restartDown is the same
// takedown for a bouncing server (the crash is indistinguishable until
// the process comes back).
func (r *run) serverFail(s *server) {
	r.rep.ServerFailures++
	r.takeDown(s)
}

func (r *run) restartDown(s *server) {
	r.takeDown(s)
	rf := r.restarts[s.id]
	lat := rf.RestartLatencyS
	if lat <= 0 {
		lat = r.cfg.RestartLatencyS
	}
	r.events.push(event{at: r.now + lat, kind: evRestartUp, srv: s.id})
}

// takeDown crashes a server: its generation bumps (stale completions
// and detections), the in-flight job is rewound to its last checkpoint,
// and everything it held parks until detection — or an earlier restart
// — re-routes it.
func (r *run) takeDown(s *server) {
	s.dead = true
	s.gen++
	if j := s.inflight; j != nil {
		s.inflight = nil
		j.resumeStep = checkpointReached(j, r.now)
		j.reland = true
		j.state = jsParked
		r.stats[j.class].Relands++
		s.parked = append(s.parked, j)
	}
	for _, j := range s.queue {
		j.state = jsParked
		s.parked = append(s.parked, j)
	}
	s.queue = s.queue[:0]
	r.events.push(event{at: r.now + r.cfg.DetectLatencyS, kind: evDetect, srv: s.id, gen: s.gen})
}

// restartUp rejoins a bounced server: fresh process (fresh breaker,
// bumped generation so the pending detection is stale), plan cache warm
// from the persisted store or cold, and everything it parked re-routes
// immediately — the fleet need not wait out the detection window for a
// server that is already back.
func (r *run) restartUp(s *server) error {
	if !s.dead {
		return nil
	}
	rf := r.restarts[s.id]
	r.rep.ServerRestarts++
	s.gen++
	s.dead = false
	s.detected = false
	s.br = resil.Breaker[float64]{Threshold: r.cfg.BreakerThreshold, Cooldown: r.cfg.BreakerCooldownS}
	if err := s.reopen(r.cfg, rf.Cold); err != nil {
		return err
	}
	parked := s.parked
	s.parked = nil
	for _, j := range parked {
		j.attempts = 0
		if err := r.route(j); err != nil {
			return err
		}
	}
	return nil
}

// checkpointReached walks the in-flight timeline up to the failure
// onset and returns the last checkpointed step — the resume point.
// Work since that checkpoint (and any un-checkpointed run) is lost.
func checkpointReached(j *job, at float64) int {
	if j.every <= 0 || at <= j.execStart {
		return j.resumeStep
	}
	done, t := j.resumeStep, j.execStart
	for i := j.resumeStep + 1; i <= j.steps; i++ {
		d := j.times.Plain
		if i%j.every == 0 {
			d = j.times.Ckpt
		}
		if t+d > at {
			break
		}
		done, t = i, t+d
	}
	return (done / j.every) * j.every
}

// detect marks the server down for the router and re-routes everything
// it was holding, in deterministic park order. A detection scheduled
// before a restart completed is stale (the generation moved on): the
// restart already re-routed the parked work and the server is healthy.
func (r *run) detect(s *server, gen uint64) error {
	if s.gen != gen || !s.dead {
		return nil
	}
	s.detected = true
	parked := s.parked
	s.parked = nil
	for _, j := range parked {
		j.attempts = 0
		if err := r.route(j); err != nil {
			return err
		}
	}
	return nil
}

// prewarm plans every class shape on every server so first dispatches
// and post-loss re-landings are plan-cache hits.
func (r *run) prewarm() error {
	for _, s := range r.servers {
		for ci, sh := range r.shapes {
			if err := s.warm(sh.opts); err != nil {
				return fmt.Errorf("cluster: prewarm server %d class %q: %w", s.id, r.cfg.Classes[ci].Name, err)
			}
		}
	}
	return nil
}

// audit recounts every job's state and checks the counters against
// them — the paranoid form of the conservation identity.
func (r *run) audit() error {
	type acc struct{ sub, rej, shed, failed, done, live int }
	per := make([]acc, len(r.stats))
	for i := range r.jobs {
		j := &r.jobs[i]
		a := &per[j.class]
		switch j.state {
		case jsPending:
			continue
		case jsRejected:
			a.rej++
		case jsShed:
			a.shed++
		case jsFailed:
			a.failed++
		case jsCompleted:
			a.done++
		case jsQueued, jsRunning, jsParked, jsRetry:
			a.live++
		}
		a.sub++
	}
	for ci := range r.stats {
		st, a := &r.stats[ci], per[ci]
		if st.Submitted != a.sub || st.Rejected() != a.rej || st.Shed != a.shed ||
			st.Failed != a.failed || st.Completed != a.done ||
			st.Submitted != a.rej+a.shed+a.failed+a.done+a.live {
			return fmt.Errorf("class %q: counters {sub %d rej %d shed %d failed %d done %d} vs states {%d %d %d %d %d live %d}",
				st.Name, st.Submitted, st.Rejected(), st.Shed, st.Failed, st.Completed,
				a.sub, a.rej, a.shed, a.failed, a.done, a.live)
		}
	}
	return nil
}

// Salts separating the cluster's resil.Hash01 decision domains.
const (
	saltDispatch = 0xd15b47c8
	saltBackoff  = 0xbac0ff
)

// The dispatch retry ladder, in virtual seconds: a failed dispatch
// burns dispatchTimeoutS, then waits resil.Backoff from backoffBaseS,
// capped at backoffMaxS and jittered per (seed, job, attempt).
const (
	dispatchTimeoutS = 0.05
	backoffBaseS     = 0.025
	backoffMaxS      = 2
)
