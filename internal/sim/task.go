package sim

import "fmt"

// Time is simulated time, in seconds.
type Time = float64

// TaskKind identifies what a task does when it runs.
type TaskKind int

// Task kinds.
const (
	KindVirtual  TaskKind = iota // zero-duration join node
	KindCompute                  // occupies an Engine for a fixed duration
	KindTransfer                 // moves bytes across a Resource path
	KindAlloc                    // blocks until pool capacity is available
	KindFree                     // returns capacity to a pool
)

func (k TaskKind) String() string {
	switch k {
	case KindVirtual:
		return "virtual"
	case KindCompute:
		return "compute"
	case KindTransfer:
		return "transfer"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	}
	return fmt.Sprintf("TaskKind(%d)", int(k))
}

type taskState int

const (
	statePending  taskState = iota // waiting on dependencies
	stateReady                     // dependencies met, waiting for engine/pool
	stateRunning                   // occupying an engine / flowing / waiting in pool
	stateFinished                  // done
)

// Task is a node in the simulated work DAG. Tasks are created through the
// Sim builder methods (Compute, Transfer, Alloc, Free, After) and must not
// be constructed directly.
type Task struct {
	id   int
	name string
	kind TaskKind

	// Compute fields.
	engine   *Engine
	duration Time

	// Transfer fields.
	path        []PathElem
	bytes       float64
	latency     Time // fixed setup time before bytes start flowing
	flowStarted bool

	// Alloc/Free fields.
	pool   *MemPool
	amount float64

	// Priority orders engine queues and flow bandwidth classes.
	// Larger values run first.
	priority int

	// Dependency bookkeeping. initWaiting is the dependency count at
	// creation; rewind/Reset restore waiting from it when re-running a
	// reused DAG (deps that were already finished at creation never
	// counted, so the value stays consistent across reruns).
	waiting     int
	initWaiting int
	succs       []*Task

	state   taskState
	readyAt Time
	startAt Time
	endAt   Time

	// Fault-injection bookkeeping (see Sim.RetryPolicy).
	retries      int
	retryLatency Time

	// Corruption bookkeeping (see corrupt.go). finalizeIntegrity derives
	// the run-level IntegrityStats from these per-task counters in task-id
	// order, making the aggregate independent of event interleaving.
	retransmits      int  // detected-corruption retransmits performed
	tainted          bool // carries (or consumed) a silently corrupted payload
	corruptExhausted bool // every delivery attempt in the budget corrupted
	corruptAttempts  int  // delivery attempts that arrived corrupted
	silentCorrupt    bool // accepted a corrupted payload (checksums off)
	checksumCharged  bool // paid the per-attempt checksum latency

	// Tag carries caller metadata through to observers.
	Tag any
}

// ID returns the task's creation-order identifier.
func (t *Task) ID() int { return t.id }

// Name returns the task's human-readable label.
func (t *Task) Name() string { return t.name }

// Kind returns what the task does.
func (t *Task) Kind() TaskKind { return t.kind }

// Bytes returns the payload size of a transfer task (0 otherwise).
func (t *Task) Bytes() float64 { return t.bytes }

// Duration returns the fixed duration of a compute task (0 otherwise).
func (t *Task) Duration() Time { return t.duration }

// Priority returns the task's scheduling priority.
func (t *Task) Priority() int { return t.priority }

// Engine returns the engine the task occupies, or nil.
func (t *Task) Engine() *Engine { return t.engine }

// Path returns the resource path of a transfer task.
func (t *Task) Path() []PathElem { return t.path }

// Start returns the time the task started running. Valid after Run.
func (t *Task) Start() Time { return t.startAt }

// End returns the time the task finished. Valid after Run.
func (t *Task) End() Time { return t.endAt }

// Finished reports whether the task completed.
func (t *Task) Finished() bool { return t.state == stateFinished }

// Retries returns the number of injected transient failures this transfer
// survived before its payload was admitted.
func (t *Task) Retries() int { return t.retries }

// RetryLatency returns the total exponential-backoff wait injected before
// the transfer's payload was admitted.
func (t *Task) RetryLatency() Time { return t.retryLatency }

// Retransmits returns the number of detected-corruption retransmissions
// this transfer performed (checksums on).
func (t *Task) Retransmits() int { return t.retransmits }

// Tainted reports whether the task carried — or transitively consumed —
// a silently corrupted payload (checksums off).
func (t *Task) Tainted() bool { return t.tainted }

func (t *Task) String() string {
	return fmt.Sprintf("task %d %q (%s)", t.id, t.name, t.kind)
}
