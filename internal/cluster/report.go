package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// ClassStats are one class's cumulative outcome counters. Every
// submitted job terminates through exactly one of Completed, Rejected
// (admission or backpressure), Shed or Failed — the per-class
// conservation identity Report.Conservation asserts.
type ClassStats struct {
	Name string
	SLO  int

	Submitted            int
	Admitted             int
	RejectedAdmission    int
	RejectedBackpressure int
	Shed                 int
	Failed               int
	Completed            int

	// Degraded counts jobs run on the greedy floor; Relands counts
	// jobs that lost a server and resumed elsewhere; MigrationS is the
	// total checkpoint-migration time their re-landings paid.
	Degraded   int
	Relands    int
	MigrationS float64

	// Queue-delay distribution over dispatches (shed jobs excluded —
	// this is the delay of work that actually ran).
	WaitMean float64
	WaitP99  float64
	WaitMax  float64

	waitSamples []float64
}

// Rejected is the class's total rejections, both rungs.
func (s *ClassStats) Rejected() int { return s.RejectedAdmission + s.RejectedBackpressure }

// conservation checks the class identity (inFlight is 0 on a drained
// report).
func (s *ClassStats) conservation(inFlight int) error {
	if s.Submitted != s.Completed+s.Rejected()+s.Shed+s.Failed+inFlight {
		return fmt.Errorf("cluster: class %q conservation violated: Submitted %d != Completed %d + Rejected %d + Shed %d + Failed %d + InFlight %d",
			s.Name, s.Submitted, s.Completed, s.Rejected(), s.Shed, s.Failed, inFlight)
	}
	if s.Admitted != s.Submitted-s.RejectedAdmission {
		return fmt.Errorf("cluster: class %q: Admitted %d != Submitted %d - RejectedAdmission %d",
			s.Name, s.Admitted, s.Submitted, s.RejectedAdmission)
	}
	return nil
}

// JobRecord is one job's audited lifecycle, for CLI dumps and the
// differential tests.
type JobRecord struct {
	ID      int
	Class   string
	Arrival float64
	Steps   int
	Outcome string
	Server  int     // last server it ran on (-1 if never dispatched)
	Start   float64 // first dispatch time (-1 if never dispatched)
	End     float64 // completion time (0 unless completed)
	// ExecSeconds is the pure execution time of the final dispatch
	// (plan and migration latency excluded) — the differential test
	// compares it bitwise against single-job core.Run pricing.
	ExecSeconds float64
	Degraded    bool
	Relands     int
	ResumeStep  int
}

// Report is the drained outcome of one fleet run.
type Report struct {
	Servers  int
	HorizonS float64
	Seed     int64

	Classes []ClassStats

	// Fleet aggregates over the classes.
	Submitted int
	Completed int
	Rejected  int
	Shed      int
	Failed    int
	// InFlight is jobs still live at report time; a drained report has
	// 0 — the driver runs every event to quiescence.
	InFlight int

	// Jain is the Jain fairness index over per-class demand-normalized
	// goodput (Completed/Submitted): 1.0 when every class gets the
	// same fraction of its demand served, 1/n when one class takes
	// everything.
	Jain float64

	// DrainedAt is the virtual time the last event fired.
	DrainedAt float64
	Events    int

	DispatchFailures int
	DispatchRetries  int
	BreakerTrips     int
	ServerFailures   int
	// ServerRestarts counts completed server bounces (server_restarts
	// clauses whose rejoin fired).
	ServerRestarts int

	// PlanSolves/PlanHits aggregate the per-server plan caches across
	// every incarnation of every server (a restart retires the old
	// service's counters into the total); a prewarmed fleet re-lands
	// jobs — and re-admits a warm-restarted server — with zero
	// incremental solves.
	PlanSolves uint64
	PlanHits   uint64

	Jobs []JobRecord
}

// finish drains run state into the report: per-class distributions,
// fleet aggregates, the fairness index and the job audit trail.
func (r *run) finish() {
	rep := r.rep
	rep.DrainedAt = r.now
	rep.Events = r.nEvents
	for ci := range r.stats {
		st := &r.stats[ci]
		st.WaitMean, st.WaitP99, st.WaitMax = waitStats(st.waitSamples)
		rep.Classes = append(rep.Classes, *st)
		rep.Submitted += st.Submitted
		rep.Completed += st.Completed
		rep.Rejected += st.Rejected()
		rep.Shed += st.Shed
		rep.Failed += st.Failed
	}
	rep.InFlight = rep.Submitted - rep.Completed - rep.Rejected - rep.Shed - rep.Failed
	rep.Jain = jain(rep.Classes)
	for _, s := range r.servers {
		m := s.svc.Metrics()
		rep.PlanSolves += m.Solves + s.retiredSolves
		rep.PlanHits += m.Hits + s.retiredHits
	}
	rep.Jobs = make([]JobRecord, 0, len(r.jobs))
	for i := range r.jobs {
		j := &r.jobs[i]
		rec := JobRecord{
			ID:         j.id,
			Class:      r.cfg.Classes[j.class].Name,
			Arrival:    j.arrival,
			Steps:      j.steps,
			Outcome:    outcomeLabel(j.state),
			Server:     j.server,
			Start:      j.startedAt,
			End:        j.endAt,
			Degraded:   j.degraded,
			ResumeStep: j.resumeStep,
		}
		if j.reland {
			rec.Relands = 1
		}
		if j.state == jsCompleted {
			rec.ExecSeconds = execSeconds(j)
		}
		rep.Jobs = append(rep.Jobs, rec)
	}
}

func outcomeLabel(st jobState) string {
	switch st {
	case jsCompleted:
		return "completed"
	case jsRejected:
		return "rejected"
	case jsShed:
		return "shed"
	case jsFailed:
		return "failed"
	case jsPending:
		return "pending"
	default:
		return "in-flight"
	}
}

func waitStats(samples []float64) (mean, p99, max float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), samples...)
	slices.Sort(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	idx := int(math.Ceil(0.99*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sum / float64(len(sorted)), sorted[idx], sorted[len(sorted)-1]
}

// jain computes the Jain fairness index over classes with demand.
func jain(classes []ClassStats) float64 {
	var sum, sumSq float64
	n := 0
	for _, c := range classes {
		if c.Submitted == 0 {
			continue
		}
		x := float64(c.Completed) / float64(c.Submitted)
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Conservation checks the fleet and per-class job-conservation
// identities; nil means every submitted job is accounted for exactly
// once.
func (r *Report) Conservation() error {
	if r.Submitted != r.Completed+r.Rejected+r.Shed+r.Failed+r.InFlight {
		return fmt.Errorf("cluster: conservation violated: Submitted %d != Completed %d + Rejected %d + Shed %d + Failed %d + InFlight %d",
			r.Submitted, r.Completed, r.Rejected, r.Shed, r.Failed, r.InFlight)
	}
	for i := range r.Classes {
		c := &r.Classes[i]
		if err := c.conservation(c.Submitted - c.Completed - c.Rejected() - c.Shed - c.Failed); err != nil {
			return err
		}
	}
	if r.InFlight != 0 {
		return fmt.Errorf("cluster: %d job(s) still in flight on a drained report", r.InFlight)
	}
	return nil
}

// Fingerprint folds the full deterministic content of the report —
// every class counter, every job record, the drain time — into a short
// digest; replays of a seed must reproduce it bit for bit.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1|%d|%d|%x|%d|", r.Servers, r.Seed, math.Float64bits(r.HorizonS), r.Events)
	fmt.Fprintf(&b, "%d/%d/%d/%d/%d/%d|%x|%x|", r.Submitted, r.Completed, r.Rejected, r.Shed, r.Failed, r.InFlight,
		math.Float64bits(r.Jain), math.Float64bits(r.DrainedAt))
	// PlanHits is deliberately excluded: a warm StepCache skips pricing
	// runs that would otherwise hit the plan service, so the hit count
	// reflects cache warmth, not fleet behavior. PlanSolves is warmth
	// independent (dispatch warms the service before pricing does).
	fmt.Fprintf(&b, "%d/%d/%d/%d/%d|%d|", r.DispatchFailures, r.DispatchRetries, r.BreakerTrips, r.ServerFailures,
		r.ServerRestarts, r.PlanSolves)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "c:%s/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%x/%x/%x/%x|",
			c.Name, c.SLO, c.Submitted, c.Admitted, c.RejectedAdmission, c.RejectedBackpressure,
			c.Shed, c.Failed, c.Completed, c.Degraded, c.Relands,
			math.Float64bits(c.MigrationS), math.Float64bits(c.WaitMean),
			math.Float64bits(c.WaitP99), math.Float64bits(c.WaitMax))
	}
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "j:%d/%s/%x/%d/%s/%d/%x/%x/%x/%v/%d/%d|",
			j.ID, j.Class, math.Float64bits(j.Arrival), j.Steps, j.Outcome, j.Server,
			math.Float64bits(j.Start), math.Float64bits(j.End), math.Float64bits(j.ExecSeconds),
			j.Degraded, j.Relands, j.ResumeStep)
	}
	return fmt.Sprintf("%016x", foldString(b.String()))
}

// String renders the fleet summary for CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d server(s), %.0fs horizon, seed %d\n", r.Servers, r.HorizonS, r.Seed)
	fmt.Fprintf(&b, "  jobs: %d submitted = %d completed + %d rejected + %d shed + %d failed (+%d in flight)\n",
		r.Submitted, r.Completed, r.Rejected, r.Shed, r.Failed, r.InFlight)
	fmt.Fprintf(&b, "  fairness (Jain over goodput): %.4f; drained at %.1fs after %d events\n", r.Jain, r.DrainedAt, r.Events)
	fmt.Fprintf(&b, "  dispatch: %d failures, %d retries, %d breaker trips; %d server failure(s), %d restart(s)\n",
		r.DispatchFailures, r.DispatchRetries, r.BreakerTrips, r.ServerFailures, r.ServerRestarts)
	fmt.Fprintf(&b, "  planning: %d solves, %d cache hits across the fleet\n", r.PlanSolves, r.PlanHits)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "  %-12s SLO %d: %4d sub %4d done %4d rej (%d adm, %d bp) %3d shed %3d failed",
			c.Name, c.SLO, c.Submitted, c.Completed, c.Rejected(), c.RejectedAdmission, c.RejectedBackpressure, c.Shed, c.Failed)
		fmt.Fprintf(&b, "; wait mean/p99/max %.2f/%.2f/%.2fs", c.WaitMean, c.WaitP99, c.WaitMax)
		if c.Degraded > 0 || c.Relands > 0 {
			fmt.Fprintf(&b, "; %d degraded, %d re-landed (+%.2fs migration)", c.Degraded, c.Relands, c.MigrationS)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// foldString is FNV-1a, for compact fingerprints.
func foldString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
