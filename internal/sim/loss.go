package sim

import (
	"fmt"
	"sort"
	"strings"
)

// This file models permanent resource loss: a GPU dropping off the bus or a
// PCIe link dying mid-run. Unlike capacity events (inject.go), which degrade
// a resource and let the run finish, a failure event halts the simulation at
// its onset with a structured ResourceLostError naming the in-flight victims.
// The elastic package uses the error to price detection, re-planning, and
// resume on the surviving topology.

// ResourceLostError is the structured failure Run returns when a scheduled
// permanent failure fires. At is the detection instant (the onset time, or
// the current clock when the onset lands between events), and Victims lists
// the in-flight tasks that were halted: flows crossing a dead resource and
// tasks occupying a dead engine.
type ResourceLostError struct {
	// Resource is the label passed to ScheduleFailure, e.g. "gpu1" or
	// "rc0".
	Resource string
	// At is the simulated time the loss was detected.
	At Time
	// Victims names the in-flight tasks halted by the loss, in
	// deterministic (task id) order.
	Victims []string
}

func (e *ResourceLostError) Error() string {
	msg := fmt.Sprintf("sim: resource %q lost at t=%.6g", e.Resource, e.At)
	if len(e.Victims) > 0 {
		msg += fmt.Sprintf(" (halted %d in-flight: %s)", len(e.Victims), strings.Join(e.Victims, ", "))
	}
	return msg
}

// failEvent is a scheduled permanent loss of a set of resources and
// engines, detected when the clock reaches at.
type failEvent struct {
	at    Time
	label string
	res   []*Resource
	eng   []*Engine
	seq   int
}

// ScheduleFailure schedules a permanent failure at time at: every resource
// in res and engine in eng is considered dead from that instant. Tasks
// completing exactly at the onset still complete (detection happens after
// same-instant completions); anything still in flight on a dead resource or
// engine becomes a victim in the resulting ResourceLostError. A failure
// scheduled beyond the makespan never fires — the run completes before the
// fault lands.
func (s *Sim) ScheduleFailure(at Time, label string, res []*Resource, eng []*Engine) {
	s.failEvents = append(s.failEvents, failEvent{at: at, label: label, res: res, eng: eng, seq: len(s.failEvents)})
}

func sortFailEvents(evs []failEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
}

// applyFailEvents fires every failure event due at (or before) the current
// clock. The first one to fire records the structured error; the run stops
// at the next loop boundary.
func (s *Sim) applyFailEvents() {
	for s.nextFail < len(s.failEvents) && s.failEvents[s.nextFail].at <= s.now+timeEpsilon {
		ev := s.failEvents[s.nextFail]
		s.nextFail++
		s.fail(&ResourceLostError{Resource: ev.label, At: s.now, Victims: s.collectVictims(ev)})
	}
}

// collectVictims gathers the in-flight tasks halted by ev: flows whose path
// crosses a dead resource, and the current occupant of each dead engine
// (covering computes and transfers still in their setup phase). A flowing
// transfer on a dead engine appears once.
func (s *Sim) collectVictims(ev failEvent) []string {
	dead := make(map[*Resource]bool, len(ev.res))
	for _, r := range ev.res {
		if r != nil {
			dead[r] = true
		}
	}
	seen := make(map[*Task]bool)
	var victims []*Task
	for _, f := range s.flows {
		for _, pe := range f.path {
			if dead[pe.Res] && !seen[f.task] {
				seen[f.task] = true
				victims = append(victims, f.task)
				break
			}
		}
	}
	for _, e := range ev.eng {
		if e == nil || e.current == nil || seen[e.current] {
			continue
		}
		seen[e.current] = true
		victims = append(victims, e.current)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	names := make([]string, len(victims))
	for i, t := range victims {
		names[i] = s.TaskName(t)
	}
	return names
}
