package sim

import "container/heap"

// Engine is an exclusive serial executor: a GPU compute engine or a DMA
// copy engine. At most one task runs on an engine at a time. Ready tasks
// queue and are dispatched highest-priority first, then in ready order.
type Engine struct {
	id      int
	name    string
	current *Task
	queue   engineQueue

	// kicked guards duplicate entries in the drain cascade's idle-engine
	// list (Sim.kicked), replacing the per-drain map the event loop
	// used to allocate. Only ever true inside Sim.drain.
	kicked bool

	// throughput scales compute durations (0 means the default of 1).
	throughput float64
}

// Name returns the engine's label.
func (e *Engine) Name() string { return e.name }

// SetThroughput sets the engine's compute-throughput multiplier: compute
// durations are divided by f, so 0 < f < 1 models a straggler running at
// a fraction of nominal speed. The default is 1.
func (e *Engine) SetThroughput(f float64) { e.throughput = f }

// Throughput returns the engine's compute-throughput multiplier.
func (e *Engine) Throughput() float64 {
	if e.throughput == 0 {
		return 1
	}
	return e.throughput
}

// Busy reports whether a task currently occupies the engine.
func (e *Engine) Busy() bool { return e.current != nil }

// Current returns the task occupying the engine, or nil.
func (e *Engine) Current() *Task { return e.current }

// QueueLen returns the number of tasks waiting for the engine.
func (e *Engine) QueueLen() int { return e.queue.Len() }

func (e *Engine) push(t *Task) { heap.Push(&e.queue, t) }

func (e *Engine) pop() *Task {
	if e.queue.Len() == 0 {
		return nil
	}
	return heap.Pop(&e.queue).(*Task)
}

// engineQueue orders tasks by priority (descending), then by the time they
// became ready, then by creation order for determinism.
type engineQueue []*Task

func (q engineQueue) Len() int { return len(q) }

func (q engineQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return a.id < b.id
}

func (q engineQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *engineQueue) Push(x any) { *q = append(*q, x.(*Task)) }

func (q *engineQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}
