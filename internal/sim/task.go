package sim

import "fmt"

// Time is simulated time, in seconds.
type Time = float64

// TaskKind identifies what a task does when it runs.
type TaskKind uint8

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

type taskState uint8

const (
	statePending  taskState = iota // waiting on dependencies
	stateReady                     // dependencies met, waiting for engine/pool
	stateRunning                   // occupying an engine / flowing / waiting in pool
	stateFinished                  // done
)

// noIndex marks a task without an engine or pool.
const noIndex = -1

// Task is a node in the simulated work DAG. Tasks are created through the
// Sim builder methods (Compute, Transfer, Alloc, Free, After) and must not
// be constructed directly.
//
// A Task holds no Go pointer: its engine and pool are indices into the
// Sim's tables, its path a PathID, its successors a run in the Sim's successor slab, its
// tag a value in int32s and its name a recipe the Sim formats on demand
// (TaskName).
// The task arena is therefore memory the garbage collector never scans;
// TestTaskHoldsNoPointers keeps it that way.
type Task struct {
	readyAt Time
	startAt Time
	endAt   Time

	// size is the compute duration, the transfer payload in bytes, or
	// the alloc/free amount in bytes, by kind.
	size float64

	// The caller's tag (SetTag), meaningful when tagged is set: Tag's
	// fields in int32s.
	tagKind, tagGPU, tagPeerGPU, tagStage, tagMicrobatch int32

	id     int32
	engine int32  // index into Sim.engines, or noIndex
	pool   int32  // index into Sim.pools, or noIndex
	path   PathID // NoPath for an empty path

	// Priority orders engine queues and flow bandwidth classes.
	// Larger values run first.
	priority int32

	// Dependency bookkeeping: waiting counts unfinished dependencies.
	// The successors are Sim.succs[succOff : succOff+succLen].
	waiting int32
	succOff int32
	succLen int32

	name Name

	kind        TaskKind
	state       taskState
	tagged      bool
	flowStarted bool

	// Corruption bookkeeping (see corrupt.go). finalizeIntegrity derives
	// the run-level IntegrityStats from these per-task counters in task-id
	// order, making the aggregate independent of event interleaving.
	retransmits      uint8 // detected-corruption retransmits performed
	corruptAttempts  uint8 // delivery attempts that arrived corrupted
	tainted          bool  // carries (or consumed) a silently corrupted payload
	corruptExhausted bool  // every delivery attempt in the budget corrupted
	silentCorrupt    bool  // accepted a corrupted payload (checksums off)
	checksumCharged  bool  // paid the per-attempt checksum latency
}

// ID returns the task's creation-order identifier.
func (t *Task) ID() int { return int(t.id) }

// Kind returns what the task does.
func (t *Task) Kind() TaskKind { return t.kind }

// Bytes returns the payload size of a transfer task (0 otherwise).
func (t *Task) Bytes() float64 {
	if t.kind != KindTransfer {
		return 0
	}
	return t.size
}

// Duration returns the fixed duration of a compute task (0 otherwise).
func (t *Task) Duration() Time {
	if t.kind != KindCompute {
		return 0
	}
	return t.size
}

// SetTag attaches caller metadata to the task; the trace package records
// the tagged tasks a run finished. Every field must be within int32.
func (t *Task) SetTag(tag Tag) {
	t.tagged = true
	t.tagKind, t.tagGPU, t.tagPeerGPU = tagField(int(tag.Kind)), tagField(tag.GPU), tagField(tag.PeerGPU)
	t.tagStage, t.tagMicrobatch = tagField(tag.Stage), tagField(tag.Microbatch)
}

func tagField(v int) int32 {
	if int(int32(v)) != v {
		panic(fmt.Sprintf("sim: tag field %d overflows int32", v))
	}
	return int32(v)
}

// Tag returns the task's metadata and whether SetTag attached any.
func (t *Task) Tag() (Tag, bool) {
	return Tag{
		Kind:       TagKind(t.tagKind),
		GPU:        int(t.tagGPU),
		PeerGPU:    int(t.tagPeerGPU),
		Stage:      int(t.tagStage),
		Microbatch: int(t.tagMicrobatch),
	}, t.tagged
}

// Start returns the time the task started running. Valid after Run.
func (t *Task) Start() Time { return t.startAt }

// End returns the time the task finished. Valid after Run.
func (t *Task) End() Time { return t.endAt }

// Finished reports whether the task completed.
func (t *Task) Finished() bool { return t.state == stateFinished }

func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s)", t.id, t.kind)
}

// Tag is the metadata schedulers attach to simulator tasks (SetTag); the
// trace package records tagged tasks and re-exports it as trace.Tag.
type Tag struct {
	Kind TagKind
	// GPU owns the work: the computing GPU, or the GPU side of a
	// DRAM transfer. For GPU-to-GPU transfers it is the source; host-side
	// transfers that touch no GPU (checkpoint writes) carry -1.
	GPU int
	// PeerGPU is the destination of a GPU-to-GPU transfer, else -1.
	PeerGPU int
	// Stage and Microbatch locate the work in the pipeline (-1 when not
	// applicable).
	Stage, Microbatch int
}

// TagKind classifies a tagged task for traffic accounting; the trace
// package re-exports it as trace.Kind.
type TagKind int

// Tag kinds.
const (
	TagCompute     TagKind = iota
	TagParamUpload         // DRAM -> GPU stage parameters
	TagActOffload          // GPU -> DRAM checkpointed activations
	TagActUpload           // DRAM -> GPU activations for backward
	TagActTransfer         // GPU -> GPU boundary activations / act gradients
	TagGradFlush           // GPU -> DRAM gradients
	TagCollective          // ZeRO all-gather / all-reduce traffic
	TagCheckpoint          // DRAM -> DRAM/SSD periodic state snapshot
)

func (k TagKind) String() string {
	switch k {
	case TagCompute:
		return "compute"
	case TagParamUpload:
		return "param-upload"
	case TagActOffload:
		return "act-offload"
	case TagActUpload:
		return "act-upload"
	case TagActTransfer:
		return "act-transfer"
	case TagGradFlush:
		return "grad-flush"
	case TagCollective:
		return "collective"
	case TagCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}
