package sim

import "sort"

// This file is the fault-injection surface of the simulator: scheduled
// capacity changes and the structured errors Run returns instead of
// panicking. The knobs are deliberately low-level and deterministic; the
// fault package translates declarative specs into calls here (permanent
// failures live in loss.go, corruption in corrupt.go).

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
// clock and marks the rates dirty when a capacity changed.
func (s *Sim) applyCapEvents() {
	for s.nextCap < len(s.capEvents) && s.capEvents[s.nextCap].at <= s.now+timeEpsilon {
		ev := s.capEvents[s.nextCap]
		s.nextCap++
		if ev.res.capacity != ev.capacity {
			ev.res.capacity = ev.capacity
			s.ratesDirty = true
		}
	}
}

// Err returns the structured failure recorded during Run, if any.
func (s *Sim) Err() error { return s.err }
