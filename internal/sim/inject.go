package sim

import "sort"

// This file is the fault-injection surface of the simulator: scheduled
// capacity changes, straggler throughput, transfer retry policies, and the
// structured errors Run returns instead of panicking. The knobs are
// deliberately low-level and deterministic; the fault package translates
// declarative specs into calls here.

// RetryPolicy decides, per transfer task, how many transient failures to
// inject and the initial backoff between attempts. The sim models the k-th
// retry as a wait of backoff*2^(k-1); the total wait is added to the
// transfer's setup latency and recorded on the task (see Task.Retries and
// Task.RetryLatency). Policies must be deterministic functions of the task
// itself (e.g. a hash of a seed and the task id), never of call order:
// tasks start in simulation order, which shifts when unrelated faults
// change timing.
type RetryPolicy func(t *Task) (retries int, backoff Time)

// capEvent is a scheduled change of a resource's capacity.
type capEvent struct {
	at       Time
	res      *Resource
	capacity float64
	seq      int
}

// ScheduleCapacity changes res's capacity to capacity (bytes/s) at time
// at. Events apply in time order (ties in schedule order) as the clock
// reaches them; rates of in-flight flows are recomputed at the event
// instant, so a degradation window splits an ongoing transfer into a fast
// and a slow phase exactly as real link contention would.
func (s *Sim) ScheduleCapacity(res *Resource, at Time, capacity float64) {
	s.capEvents = append(s.capEvents, capEvent{at: at, res: res, capacity: capacity, seq: len(s.capEvents)})
}

func sortCapEvents(evs []capEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
}

// applyCapEvents applies every capacity event due at (or before) the
// clock and marks the affected resource's component dirty when anything
// changed.
func (s *Sim) applyCapEvents() {
	for s.nextCap < len(s.capEvents) && s.capEvents[s.nextCap].at <= s.now+timeEpsilon {
		ev := s.capEvents[s.nextCap]
		s.nextCap++
		if ev.res.capacity != ev.capacity {
			ev.res.capacity = ev.capacity
			s.touchResource(ev.res)
		}
	}
}

// touchResource marks the component of r dirty, if any active flow
// crosses it. A capacity change on an idle resource perturbs nobody: the
// new capacity is simply what the next admission will water-fill against.
func (s *Sim) touchResource(r *Resource) {
	if r.ufGen != s.ufGen {
		return
	}
	if root := s.findRoot(r); root.comp != nil {
		s.markDirty(root.comp)
	}
}

// Err returns the structured failure recorded during Run, if any.
func (s *Sim) Err() error { return s.err }
