package sim

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
}

// Name returns the engine's label.
func (e *Engine) Name() string { return e.name }

// Busy reports whether a task currently occupies the engine.
func (e *Engine) Busy() bool { return e.current != nil }

// Current returns the task occupying the engine, or nil.
func (e *Engine) Current() *Task { return e.current }

// QueueLen returns the number of tasks waiting for the engine.
func (e *Engine) QueueLen() int { return len(e.queue) }
