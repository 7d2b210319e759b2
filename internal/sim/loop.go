package sim

import "math"

// This file is the event loop of the simulator: clock, ready worklist,
// engine dispatch, active flows, and the compute and flow completion
// heaps. Its state lives on Sim (sim.go); rate computation lives in
// flow.go.

// run executes the event loop to completion, structured failure, or
// deadlock (pending tasks left with no event to fire; Run derives the
// deadlock error from the leftover state).
func (s *Sim) run() {
	s.applyCapEvents()
	s.applyFailEvents()

	// Seed the worklist with dependency-free tasks.
	for _, c := range s.taskChunks {
		for i := range c {
			if t := &c[i]; t.state == statePending && t.waiting == 0 {
				s.ready = append(s.ready, t)
			}
		}
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
		if next <= s.now {
			next = s.now
			if !s.advance(next) {
				// Nothing happened at the current instant, so the loop
				// would pick it again forever: a flow's predicted
				// completion rounded onto a clock too coarse to finish it.
				s.fail(&StallError{At: s.now, Task: s.TaskName(s.flowQueue.top().task)})
				break
			}
		} else {
			s.advance(next)
		}
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
// completion) or when its rate changes (applyRates). It reports whether
// anything happened: a task completed, a flow started, or a capacity or
// failure event applied.
func (s *Sim) advance(t Time) bool {
	s.now = t
	popped, cap, fail := false, s.nextCap, s.nextFail

	// Complete finished computes; transfer tasks surfacing here have
	// finished their setup latency and now begin flowing.
	for len(s.computes) > 0 && s.computes[0].endAt <= s.now+timeEpsilon {
		popped = true
		task := s.computes.pop()
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
		if len(f.path) > 0 {
			// The freed bandwidth redistributes to the survivors.
			s.removeFromFlowList(f)
			s.ratesDirty = true
		}
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
			f.task, f.path = nil, nil
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
	return popped || len(done) > 0 || s.nextCap != cap || s.nextFail != fail
}

// finishEngineTask completes a compute or transfer task, releases its
// engine and dispatches the next queued task on that engine.
func (s *Sim) finishEngineTask(t *Task) {
	s.complete(t)
	if e := s.engineOf(t); e != nil && e.current == t {
		e.current = nil
		if nxt := e.queue.pop(); nxt != nil {
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
				nxt := e.queue.pop()
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
		s.complete(t)
	case KindAlloc:
		p := s.pools[t.pool]
		if t.size > p.capacity+memEpsilon {
			// The request can never be satisfied: a structured OOM
			// beats an eventual deadlock report.
			s.fail(&OOMError{Pool: p.name, Task: s.TaskName(t), Need: t.size, Capacity: p.capacity})
			return
		}
		if p.tryAlloc(t) {
			t.startAt = s.now
			s.complete(t)
		} else {
			t.state = stateRunning
			p.waiters = append(p.waiters, t)
		}
	case KindFree:
		t.startAt = s.now
		p := s.pools[t.pool]
		woken, below := p.release(t.size)
		if below > 0 {
			s.fail(&MemAccountError{Pool: p.name, Task: s.TaskName(t), Freed: t.size, Below: below})
			return
		}
		s.complete(t)
		for _, w := range woken {
			w.startAt = s.now
			s.complete(w)
		}
	case KindCompute, KindTransfer:
		e := s.engineOf(t)
		if e == nil {
			s.startOnEngine(t)
			return
		}
		e.queue.push(t)
		if e.current == nil && !e.kicked {
			e.kicked = true
			s.kicked = append(s.kicked, e)
		}
	}
}

// startOnEngine begins running a compute or transfer task now.
func (s *Sim) startOnEngine(t *Task) {
	t.state = stateRunning
	t.startAt = s.now
	if e := s.engineOf(t); e != nil {
		e.current = t
	}

	switch t.kind {
	case KindCompute:
		t.endAt = s.now + t.size
		s.computes.push(t)
	case KindTransfer:
		lat := s.TransferLatency
		if t.size > 0 {
			if s.Checksums.Enabled {
				// Detection price of the first delivery attempt;
				// retransmitted attempts are charged inside
				// injectCorruption. Recorded on the task; the run-level
				// totals are derived by finalizeIntegrity.
				t.checksumCharged = true
				lat += Time(t.size * DefaultChecksumCostPerByte)
			}
			if s.CorruptionPolicy != nil {
				lat += s.injectCorruption(t)
			}
		}
		if lat > 0 && t.size > 0 {
			// Setup phase: occupy the engine for the latency, then flow.
			t.endAt = s.now + lat
			s.computes.push(t)
			return
		}
		s.beginFlow(t)
	}
}

// beginFlow admits a transfer task's payload into the fair-sharing flow
// set (after any setup latency has elapsed): the flow joins the
// completion heap and, unless its path is empty, the active list, which
// marks the rates dirty for the next recompute.
func (s *Sim) beginFlow(t *Task) {
	t.flowStarted = true
	f := s.takeFlow()
	f.task = t
	f.path = s.PathOf(t)
	// Retransmitted attempts re-flow the payload, so detected corruption
	// consumes real path bandwidth, not just setup latency.
	f.remaining = t.size * float64(1+int(t.retransmits))
	f.rate = 0
	f.lastUpdate = s.now
	if t.size <= 0 || len(f.path) == 0 {
		f.rate = infiniteRate
		if t.size <= 0 {
			// Zero-byte transfer: complete in the same instant via the
			// flow set so engine release ordering stays uniform.
			f.remaining = 0
		}
	}
	f.nextRate = f.rate
	f.pred = f.predict()
	s.flowQueue.push(f)
	if len(f.path) > 0 {
		f.listIdx = len(s.flows)
		s.flows = append(s.flows, f)
		s.ratesDirty = true
	}
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
// slab, cutting GC pressure on DAGs with many transfers.
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
	s.finished = append(s.finished, t)
	for _, id := range s.succsOf(t) {
		succ := s.task(id)
		if t.tainted {
			// Silent corruption poisons everything downstream.
			succ.tainted = true
		}
		succ.waiting--
		if succ.waiting == 0 && succ.state == statePending {
			s.ready = append(s.ready, succ)
		}
	}
	if t.corruptExhausted {
		s.fail(&CorruptionError{Task: s.TaskName(t), At: s.now, Attempts: 1 + int(t.retransmits)})
	}
}

// fail records the run's first structured failure; the loop stops at
// the next event boundary.
func (s *Sim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}
