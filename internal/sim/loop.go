package sim

import (
	"container/heap"
	"math"
)

// This file is the event loop of the simulator: clock, ready worklist,
// engine dispatch, active flows, and the compute and flow completion
// heaps. Its state lives on Sim (sim.go); rate computation and the
// union-find component structure it drives live in flow.go and
// component.go.

// obsEvent is one buffered observer notification. Notifications are
// dispatched after the run, sorted by (time, task id, start-before-
// finish): a canonical order shared by the incremental scheduler and
// the oracle, so observed timelines are mode-independent by
// construction rather than by matching cascade orders.
type obsEvent struct {
	task   *Task
	at     Time
	finish bool
}

// begin readies the event-loop state for the current run. A fresh
// schedule (not started, not yet prepared since the last rewind) recycles
// leftover state and draws a fresh generation; an already-started
// schedule keeps its in-flight flows, heaps, and event cursors intact.
// Test harnesses call this to drive the event loop manually before Run.
func (s *Sim) begin() {
	if !s.started && !s.prepared {
		s.prepare()
		s.prepared = true
	}
}

// prepare resets the event-loop state for a fresh run, recycling flow
// and component structs and drawing a fresh union-find generation. Task,
// resource, engine, and pool state is NOT touched here — that is
// rewind's job (reset.go).
func (s *Sim) prepare() {
	for _, c := range s.dirtyComps {
		c.dirty = false
		s.recycleComponent(c)
	}
	s.dirtyComps = s.dirtyComps[:0]
	for _, f := range s.flows {
		f.task = nil
		s.flowPool = append(s.flowPool, f)
	}
	s.flows = s.flows[:0]
	for i := range s.computes {
		s.computes[i] = nil
	}
	s.computes = s.computes[:0]
	for i := range s.flowQueue.items {
		s.flowQueue.items[i] = nil
	}
	s.flowQueue.items = s.flowQueue.items[:0]
	s.ready = s.ready[:0]
	s.readyHead = 0
	s.events = s.events[:0]
	s.ratesDirty = false
	s.err = nil
	s.now = 0
	s.nextCap, s.nextFail = 0, 0

	// A fresh generation: union-find marks a previous run left on the
	// Resource structs read as stale, never as current. The component
	// visit epoch only ever grows, so it needs no reset.
	s.ufGen++
}

// run executes the event loop to completion, structured failure, or
// deadlock (pending tasks left with no event to fire; Run derives the
// deadlock error from the leftover state).
func (s *Sim) run() {
	s.applyCapEvents()
	s.applyFailEvents()

	// Seed the worklist with dependency-free tasks.
	for _, t := range s.tasks {
		if t.state == statePending && t.waiting == 0 {
			s.ready = append(s.ready, t)
		}
	}
	if len(s.ready) > s.readyHWM {
		s.readyHWM = len(s.ready)
	}
	s.drain()

	for s.pending > 0 && s.err == nil {
		s.recomputeRates()

		// Picking the next event is O(log F): the flow with the earliest
		// predicted completion sits at the top of the completion heap,
		// maintained incrementally as rates change.
		next := math.Inf(1)
		if len(s.computes) > 0 {
			next = s.computes[0].endAt
		}
		if s.flowQueue.Len() > 0 {
			if p := s.flowQueue.top().pred; p < next {
				next = p
			}
		}
		if s.nextCap < len(s.capEvents) && s.capEvents[s.nextCap].at < next {
			next = s.capEvents[s.nextCap].at
		}
		if s.nextFail < len(s.failEvents) && s.failEvents[s.nextFail].at < next {
			next = s.failEvents[s.nextFail].at
		}
		if math.IsInf(next, 1) {
			// Deadlock: no event can fire.
			break
		}
		if next < s.now {
			next = s.now
		}
		s.advance(next)
		s.drain()
	}
	// Settle lazy progress so utilization accounting and invariant checks
	// see exact per-resource traffic, including for runs halted by a
	// structured failure with flows still in flight.
	s.settleAllFlows()
}

// advance moves the clock to t and completes every compute and flow that
// finishes at (or within epsilon of) t. Flow progress is lazy: nothing is
// swept per event — a flow's remaining payload is settled only here (on
// completion) or when its rate changes (applyRates).
func (s *Sim) advance(t Time) {
	s.now = t

	// Complete finished computes; transfer tasks surfacing here have
	// finished their setup latency and now begin flowing.
	for len(s.computes) > 0 && s.computes[0].endAt <= s.now+timeEpsilon {
		task := heap.Pop(&s.computes).(*Task)
		if task.kind == KindTransfer {
			s.beginFlow(task)
			continue
		}
		s.finishEngineTask(task)
	}

	// Complete finished flows: pop the completion heap while the settled
	// remaining payload is within slack of zero. Collect first, then
	// finish, so heap and flow-list mutation stay simple.
	done := s.doneScratch[:0]
	for s.flowQueue.Len() > 0 {
		f := s.flowQueue.top()
		slack := f.rate * timeEpsilon * 1e6 // absolute byte tolerance
		if slack < 1e-9 {
			slack = 1e-9
		}
		if f.remaining-f.rate*(s.now-f.lastUpdate) > slack {
			break
		}
		s.flowQueue.popTop()
		s.settleFlow(f)
		s.removeFromFlowList(f)
		s.componentFinish(f)
		done = append(done, f)
	}
	if len(done) > 0 {
		// Finish the batch in task-id order — the order the eager sweep
		// used to produce — so same-instant completions feed pool FIFO
		// queues and the ready worklist identically.
		sortFlowsByID(done)
		tasks := s.doneTasks[:0]
		for _, f := range done {
			tasks = append(tasks, f.task)
		}
		// Recycle the flow structs before dispatching completions: the
		// batch no longer references them, and a completion may admit new
		// flows that reuse the structs immediately.
		for _, f := range done {
			f.task = nil
			s.flowPool = append(s.flowPool, f)
		}
		for _, task := range tasks {
			s.finishEngineTask(task)
		}
		s.doneTasks = tasks[:0]
	}
	s.doneScratch = done[:0]

	s.applyCapEvents()
	s.applyFailEvents()
}

// finishEngineTask completes a compute or transfer task, releases its
// engine and dispatches the next queued task on that engine.
func (s *Sim) finishEngineTask(t *Task) {
	s.complete(t)
	if t.engine != nil && t.engine.current == t {
		t.engine.current = nil
		if nxt := t.engine.pop(); nxt != nil {
			s.startOnEngine(nxt)
		}
	}
}

// drain processes the instantaneous cascade: completed tasks release
// successors, virtual/alloc/free tasks execute with zero duration, and
// compute/transfer tasks are dispatched to their engines.
func (s *Sim) drain() {
	for {
		for s.readyHead < len(s.ready) {
			if s.err != nil {
				s.clearKicked()
				return
			}
			t := s.ready[s.readyHead]
			s.readyHead++
			s.drainOne(t)
		}
		s.ready = s.ready[:0]
		s.readyHead = 0
		if len(s.kicked) == 0 {
			return
		}
		// Dispatch idle engines only after the instantaneous cascade has
		// settled so that same-instant arrivals compete by priority.
		sortEngines(s.kicked)
		for _, e := range s.kicked {
			e.kicked = false
		}
		// No new kicks can happen during dispatch (startOnEngine never
		// feeds the ready worklist), so iterating while resetting after
		// the loop is safe.
		for _, e := range s.kicked {
			for e.current == nil {
				nxt := e.pop()
				if nxt == nil {
					break
				}
				s.startOnEngine(nxt)
			}
		}
		s.kicked = s.kicked[:0]
	}
}

// clearKicked drops the pending idle-engine list (error bail-out path)
// so the flags never leak into a later drain.
func (s *Sim) clearKicked() {
	for _, e := range s.kicked {
		e.kicked = false
	}
	s.kicked = s.kicked[:0]
}

func (s *Sim) drainOne(t *Task) {
	if t.state != statePending {
		return
	}
	t.state = stateReady
	t.readyAt = s.now

	switch t.kind {
	case KindVirtual:
		t.startAt = s.now
		s.notifyStart(t)
		s.complete(t)
	case KindAlloc:
		if t.amount > t.pool.capacity+memEpsilon {
			// The request can never be satisfied (e.g. memory pressure
			// shrank the pool): a structured OOM beats an eventual
			// deadlock report.
			s.fail(&OOMError{Pool: t.pool.name, Task: t.name, Need: t.amount, Capacity: t.pool.capacity})
			return
		}
		if t.pool.tryAlloc(t) {
			t.startAt = s.now
			s.notifyStart(t)
			s.complete(t)
		} else {
			t.state = stateRunning
			t.pool.waiters = append(t.pool.waiters, t)
		}
	case KindFree:
		t.startAt = s.now
		s.notifyStart(t)
		woken, below := t.pool.release(t.amount)
		if below > 0 {
			s.fail(&MemAccountError{Pool: t.pool.name, Task: t.name, Freed: t.amount, Below: below})
			return
		}
		s.complete(t)
		for _, w := range woken {
			w.startAt = s.now
			s.notifyStart(w)
			s.complete(w)
		}
	case KindCompute, KindTransfer:
		if t.engine == nil {
			s.startOnEngine(t)
			return
		}
		t.engine.push(t)
		if t.engine.current == nil && !t.engine.kicked {
			t.engine.kicked = true
			s.kicked = append(s.kicked, t.engine)
		}
	}
}

// startOnEngine begins running a compute or transfer task now.
func (s *Sim) startOnEngine(t *Task) {
	t.state = stateRunning
	t.startAt = s.now
	if t.engine != nil {
		t.engine.current = t
	}
	s.notifyStart(t)

	switch t.kind {
	case KindCompute:
		d := t.duration
		if t.engine != nil {
			if f := t.engine.Throughput(); f != 1 {
				d /= f
			}
		}
		t.endAt = s.now + d
		heap.Push(&s.computes, t)
	case KindTransfer:
		lat := t.latency
		if lat <= 0 {
			lat = s.TransferLatency
		}
		if s.RetryPolicy != nil && t.bytes > 0 {
			if n, backoff := s.RetryPolicy(t); n > 0 && backoff > 0 {
				// Failed attempts wait backoff, 2*backoff, ... before the
				// payload is finally admitted.
				extra, step := Time(0), backoff
				for i := 0; i < n; i++ {
					extra += step
					step *= 2
				}
				t.retries = n
				t.retryLatency = extra
				lat += extra
			}
		}
		if t.bytes > 0 {
			if s.Checksums.Enabled {
				// Detection price of the first delivery attempt;
				// retransmitted attempts are charged inside
				// injectCorruption. Recorded on the task; the run-level
				// totals are derived by finalizeIntegrity.
				t.checksumCharged = true
				lat += Time(t.bytes * s.Checksums.costPerByte())
			}
			if s.CorruptionPolicy != nil {
				lat += s.injectCorruption(t)
			}
		}
		if lat > 0 && t.bytes > 0 {
			// Setup phase: occupy the engine for the latency, then flow.
			t.endAt = s.now + lat
			heap.Push(&s.computes, t)
			return
		}
		s.beginFlow(t)
	}
}

// beginFlow admits a transfer task's payload into the fair-sharing flow
// set (after any setup latency has elapsed): the flow joins the
// active list, the completion heap, and — unless its path is empty — the
// connected component its resources belong to, which is marked dirty for
// the next rate recompute.
func (s *Sim) beginFlow(t *Task) {
	t.flowStarted = true
	f := s.takeFlow()
	f.task = t
	// Retransmitted attempts re-flow the payload, so detected corruption
	// consumes real path bandwidth, not just setup latency.
	f.remaining = t.bytes * float64(1+t.retransmits)
	f.rate = 0
	f.lastUpdate = s.now
	if t.bytes <= 0 || len(t.path) == 0 {
		f.rate = infiniteRate
		if t.bytes <= 0 {
			// Zero-byte transfer: complete in the same instant via the
			// flow set so engine release ordering stays uniform.
			f.remaining = 0
		}
	}
	f.nextRate = f.rate
	f.pred = f.predict()
	// s.flows is unordered (O(1) admit and swap-remove); the canonical
	// iteration order for rate computation lives in the component lists.
	f.listIdx = len(s.flows)
	s.flows = append(s.flows, f)
	if len(s.flows) > s.flowsHWM {
		s.flowsHWM = len(s.flows)
	}
	s.flowQueue.push(f)
	s.componentAdmit(f)
}

// removeFromFlowList unlinks f from the active-flow list in O(1) by
// swapping the last entry into its slot.
func (s *Sim) removeFromFlowList(f *flow) {
	last := len(s.flows) - 1
	moved := s.flows[last]
	s.flows[f.listIdx] = moved
	moved.listIdx = f.listIdx
	s.flows[last] = nil
	s.flows = s.flows[:last]
}

// takeFlow recycles a flow struct from the pool, or carves one from the
// slab, cutting steady-state GC pressure on DAGs with many
// transfers (and construction-time allocation churn on reruns).
func (s *Sim) takeFlow() *flow {
	if n := len(s.flowPool); n > 0 {
		f := s.flowPool[n-1]
		s.flowPool[n-1] = nil
		s.flowPool = s.flowPool[:n-1]
		return f
	}
	if len(s.flowSlab) == 0 {
		s.flowSlab = make([]flow, 64)
	}
	f := &s.flowSlab[0]
	s.flowSlab = s.flowSlab[1:]
	f.heapIdx = -1
	return f
}

func (s *Sim) complete(t *Task) {
	if t.state == stateFinished {
		return
	}
	t.state = stateFinished
	t.endAt = s.now
	s.pending--
	s.notifyFinish(t)
	for _, succ := range t.succs {
		if t.tainted {
			// Silent corruption poisons everything downstream.
			succ.tainted = true
		}
		succ.waiting--
		if succ.waiting == 0 && succ.state == statePending {
			s.ready = append(s.ready, succ)
			if len(s.ready) > s.readyHWM {
				s.readyHWM = len(s.ready)
			}
		}
	}
	if t.corruptExhausted {
		s.fail(&CorruptionError{Task: t.name, At: s.now, Attempts: 1 + t.retransmits})
	}
}

func (s *Sim) notifyStart(t *Task) {
	if len(s.observers) != 0 {
		s.events = append(s.events, obsEvent{task: t, at: s.now})
	}
}

func (s *Sim) notifyFinish(t *Task) {
	if len(s.observers) != 0 {
		s.events = append(s.events, obsEvent{task: t, at: s.now, finish: true})
	}
}

// fail records the run's first structured failure; the loop stops at
// the next event boundary.
func (s *Sim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}
