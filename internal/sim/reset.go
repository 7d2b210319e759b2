package sim

// This file implements topology reuse. Building a large DAG is a real
// fraction of short-run cost (experiment grids, chaos replays), so rewind
// returns an executed simulator to its pre-Run state without rebuilding
// anything: task states, resource/engine/pool state, and the run results
// are cleared, while the DAG and the topology survive. The public Reset
// additionally clears injected faults, making the simulator ready for the
// next experiment cell on the same topology.

// rewind restores every task, resource, engine, and pool to its pre-Run
// state and resets the event loop, keeping scheduled fault events
// intact.
func (s *Sim) rewind() {
	for _, c := range s.taskChunks {
		for i := range c {
			t := &c[i]
			t.state = statePending
			t.waiting = t.initWaiting
			t.readyAt = 0
			t.startAt = 0
			t.endAt = 0
			t.flowStarted = false
			t.retransmits = 0
			t.tainted = false
			t.corruptExhausted = false
			t.corruptAttempts = 0
			t.silentCorrupt = false
			t.checksumCharged = false
		}
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
	s.prepare()
	s.pending = s.numTasks
	s.ran = false
	s.integrity = IntegrityStats{}
}

// Reset returns the simulator to its just-built state so the constructed
// topology and DAG can be executed again: rewind plus removal of every
// injected fault — scheduled capacity and failure events, the
// corruption policy and the checksum configuration. A run after Reset replays the fault-free
// schedule bitwise; pooled run buffers keep their capacity, so
// steady-state Reset+Run loops stay allocation-free.
func (s *Sim) Reset() {
	s.rewind()
	s.capEvents = s.capEvents[:0]
	s.failEvents = s.failEvents[:0]
	s.CorruptionPolicy = nil
	s.Checksums = ChecksumConfig{}
}
