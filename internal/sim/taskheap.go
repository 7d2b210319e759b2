package sim

// The two task heaps of the event loop, typed over their total orders:
// task ids are unique, so every pop returns the one minimum and the pop
// sequence is a property of the order, not of the heap's layout.
// TestTaskHeapsMatchContainerHeap holds both to container/heap.

// engineQueue orders an engine's ready tasks by priority (descending),
// then by the time they became ready, then by creation order.
type engineQueue []*Task

func (q engineQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.id < b.id
}

func (q *engineQueue) push(t *Task) {
	*q = append(*q, t)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the first task, or nil when the queue is empty.
func (q *engineQueue) pop() *Task {
	h := *q
	n := len(h) - 1
	if n < 0 {
		return nil
	}
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// computeHeap orders running computes, and transfers in their setup
// phase, by completion time, then by creation order.
type computeHeap []*Task

func (q computeHeap) less(i, j int) bool {
	a, b := q[i], q[j]
	if a.endAt != b.endAt {
		return a.endAt < b.endAt
	}
	return a.id < b.id
}

func (q *computeHeap) push(t *Task) {
	*q = append(*q, t)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the first task; the heap must not be empty.
func (q *computeHeap) pop() *Task {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}
