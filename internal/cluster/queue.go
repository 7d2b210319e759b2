package cluster

// eventQueue yields a run's events in (at, seq) order. Arrivals never
// enter the heap: they are a cursor over the run's jobs, which
// generateJobs sorted by arrival, and at equal times an arrival comes
// first — the order a heap holding every event gives when the arrivals
// are pushed before anything else. Retries, completions, faults and
// restarts sit in a binary min-heap of event values.
type eventQueue struct {
	arrivals []job
	next     int
	heap     []event
	seq      uint64
}

// push stamps e with the next sequence number and adds it to the heap.
func (q *eventQueue) push(e event) {
	e.seq = q.seq
	q.seq++
	q.heap = append(q.heap, e)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest event; ok is false once both
// the arrivals and the heap are exhausted.
func (q *eventQueue) pop() (e event, ok bool) {
	if q.next < len(q.arrivals) {
		j := &q.arrivals[q.next]
		if len(q.heap) == 0 || j.arrival <= q.heap[0].at {
			q.next++
			return event{at: j.arrival, kind: evArrival, job: j}, true
		}
	}
	n := len(q.heap) - 1
	if n < 0 {
		return event{}, false
	}
	h := q.heap
	e = h[0]
	h[0] = h[n]
	h[n] = event{} // drop the job pointer
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	q.heap = h
	return e, true
}

// before is the heap order: time, then push order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}
