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
