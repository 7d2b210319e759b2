package sim

// This file implements topology reuse. Building a large DAG is a real
// fraction of short-run cost (experiment grids, chaos replays), so rewind
// returns an executed simulator to its pre-Run state without rebuilding
// anything: task states, resource/engine/pool state, and the run results
// are cleared, while the DAG, the topology, and registered observers
// survive. The public Reset additionally clears injected faults, making
// the simulator ready for the next experiment cell on the same topology.

// rewind restores every task, resource, engine, and pool to its pre-Run
// state, keeping scheduled fault events and pre-run mutations (pool
// capacity, engine throughput) intact. Dependencies
// that were already finished when a task was created were never counted
// in its waiting count; they replay that way, so DAGs built incrementally
// across runs keep the dependency structure they were created with.
func (s *Sim) rewind() {
	for _, t := range s.tasks {
		t.state = statePending
		t.waiting = t.initWaiting
		t.readyAt = 0
		t.startAt = 0
		t.endAt = 0
		t.flowStarted = false
		t.retries = 0
		t.retryLatency = 0
		t.retransmits = 0
		t.tainted = false
		t.corruptExhausted = false
		t.corruptAttempts = 0
		t.silentCorrupt = false
		t.checksumCharged = false
	}
	for _, r := range s.resources {
		r.capacity = r.baseCapacity
		r.carried = 0
		r.ufGen = 0
		r.ufParent = nil
		r.comp = nil
		r.listedGen = 0
		r.listedComp = nil
	}
	for _, e := range s.engines {
		e.current = nil
		for i := range e.queue {
			e.queue[i] = nil
		}
		e.queue = e.queue[:0]
		e.kicked = false
	}
	for _, p := range s.pools {
		p.used = 0
		p.peak = 0
		p.waiters = p.waiters[:0]
	}
	// The event loop re-prepares on next use.
	s.prepared = false
	s.now = 0
	s.pending = len(s.tasks)
	s.err = nil
	s.finalErr = nil
	s.started = false
	s.ran = false
	s.integrity = IntegrityStats{}
}

// Reset returns the simulator to its just-built state so the constructed
// topology and DAG can be executed again: rewind plus removal of every
// injected fault — scheduled capacity and failure events, retry and
// corruption policies, checksum configuration, engine throughput
// overrides, and pool resizes. Observers stay registered; a run after
// Reset replays the fault-free schedule bitwise.
//
// Reset also shrinks (not just truncates) pooled run buffers that grew
// past the high-water mark observed since the previous Reset, so one
// large run does not pin its peak memory for every later small run
// in a grid. Buffers the last run actually filled keep their capacity —
// steady-state Reset+Run loops stay allocation-free.
func (s *Sim) Reset() {
	s.rewind()
	s.capEvents = s.capEvents[:0]
	s.failEvents = s.failEvents[:0]
	s.RetryPolicy = nil
	s.CorruptionPolicy = nil
	s.Checksums = ChecksumConfig{}
	for _, e := range s.engines {
		e.throughput = 0
	}
	for _, p := range s.pools {
		p.capacity = p.baseCapacity
	}
	s.shrinkRetained()
}

// shrinkMinCap is the retained capacity below which Reset never shrinks:
// small buffers are noise, and reclaiming them would just cause regrow
// churn in steady-state loops.
const shrinkMinCap = 4096

// shrinkSlice reclaims buf's backing array when its capacity dwarfs the
// high-water mark of the last runs (and is big enough to matter),
// returning an empty slice sized to the mark. Otherwise it returns
// buf[:0] with capacity intact.
func shrinkSlice[T any](buf []T, hwm int) []T {
	if cap(buf) <= shrinkMinCap || cap(buf) <= 2*hwm {
		return buf[:0]
	}
	if hwm == 0 {
		return nil
	}
	return make([]T, 0, hwm)
}

// shrinkRetained releases oversized pooled run buffers, then rearms the
// high-water marks for the next Reset window.
func (s *Sim) shrinkRetained() {
	s.events = shrinkSlice(s.events, s.eventsHWM)
	s.ready = shrinkSlice(s.ready, s.readyHWM)
	if n := len(s.flowPool); n > shrinkMinCap && n > 2*s.flowsHWM {
		// The pool is a stack of recycled flow structs (len == available);
		// drop the excess so the GC can take the slab chunks behind them.
		keep := s.flowsHWM
		np := make([]*flow, keep)
		copy(np, s.flowPool[:keep])
		s.flowPool = np
	}
	s.eventsHWM, s.flowsHWM, s.readyHWM = 0, 0, 0
}
