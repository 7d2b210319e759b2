package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Sim owns the simulated hardware (resources, engines, pools) and the work
// DAG, and executes the DAG to completion. The event loop lives in
// loop.go, rate computation in flow.go.
type Sim struct {
	now     Time
	pending int

	// finished lists the tasks of the current run in completion order;
	// Run sorts each run of equal end times by task id (see Finished).
	finished []*Task

	resources []*Resource
	engines   []*Engine
	pools     []*MemPool

	// TransferLatency is the fixed per-transfer setup time applied to
	// every Transfer task (DMA descriptor setup, host staging
	// synchronization, framework launch overhead). Zero by default; the
	// hardware layer sets a topology-appropriate value.
	TransferLatency Time

	// CorruptionPolicy, when non-nil, is consulted per delivery attempt
	// of every transfer with payload; see corrupt.go.
	CorruptionPolicy CorruptionPolicy

	// Checksums configures end-to-end transfer checksums (detection and
	// retransmit of injected corruption); the zero value disables them.
	Checksums ChecksumConfig

	// integrity aggregates corruption/detection bookkeeping, derived from
	// per-task counters by finalizeIntegrity when Run returns.
	integrity IntegrityStats

	// Scheduled capacity changes and permanent failures (fault
	// injection), applied in time order; nextCap and nextFail are the
	// event loop's cursors into them.
	capEvents  []capEvent
	nextCap    int
	failEvents []failEvent
	nextFail   int

	// ran records that Run executed the DAG.
	ran bool

	// err is the first structured failure of the last run (invariant
	// checks distinguish halted from completed runs by it).
	err error

	// ready is the instantaneous-cascade worklist, consumed FIFO through
	// readyHead so the backing array is reused instead of abandoned one
	// pop at a time; drain resets both once the queue empties.
	ready     []*Task
	readyHead int

	// flows lists the active flows whose path is not empty, in
	// admission order with swap-removal (flow.listIdx): the order the
	// water-fill serves them in. An empty-path flow is unconstrained and
	// lives only in flowQueue.
	flows []*flow

	// ratesDirty marks the flow set or a capacity changed since the
	// last water-fill.
	ratesDirty bool
	computes   computeHeap
	flowQueue  flowHeap

	// Scratch reused across events (no allocation per event).
	prioScratch  []int32
	classBuckets [][]*flow
	fixedScratch []bool
	resScratch   []*Resource
	doneScratch  []*flow
	doneTasks    []*Task
	kicked       []*Engine
	flowPool     []*flow
	flowSlab     []flow

	// The DAG. Tasks live in chunks of taskChunk, so a *Task stays valid
	// as the DAG grows and task id i sits at taskChunks[i/taskChunk];
	// Task holds no pointer, so the chunks are memory the garbage
	// collector never scans. succs is the successor slab every task's
	// run of successor ids is carved from.
	taskChunks [][]Task
	numTasks   int
	succs      []int32

	// The hardware registry comes from chunked slabs instead of one
	// allocation per object.
	resSlab  []Resource
	engSlab  []Engine
	poolSlab []MemPool

	// paths holds the registered paths (resource.go), PathID i at
	// paths[i-1], their elements carved from pathSlab.
	paths    [][]PathElem
	pathSlab []PathElem

	// labels are the name patterns Name interns, found by labelIDs.
	labels   [][maxNameInts + 1]string
	labelIDs map[[maxNameInts + 1]string]int32
}

// taskChunk is the number of tasks one arena chunk holds.
const taskChunk = 256

// New creates an empty simulator.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// NewResource adds a bandwidth-shared resource with the given capacity in
// bytes per second.
func (s *Sim) NewResource(name string, capacity float64) *Resource {
	if len(s.resSlab) == 0 {
		s.resSlab = make([]Resource, 64)
	}
	r := &s.resSlab[0]
	s.resSlab = s.resSlab[1:]
	r.id, r.name, r.capacity = len(s.resources), name, capacity
	s.resources = append(s.resources, r)
	return r
}

// NewEngine adds an exclusive serial executor.
func (s *Sim) NewEngine(name string) *Engine {
	if len(s.engSlab) == 0 {
		s.engSlab = make([]Engine, 64)
	}
	e := &s.engSlab[0]
	s.engSlab = s.engSlab[1:]
	e.id, e.name = len(s.engines), name
	s.engines = append(s.engines, e)
	return e
}

// NewMemPool adds a finite memory pool with the given capacity in bytes.
func (s *Sim) NewMemPool(name string, capacity float64) *MemPool {
	if len(s.poolSlab) == 0 {
		s.poolSlab = make([]MemPool, 64)
	}
	p := &s.poolSlab[0]
	s.poolSlab = s.poolSlab[1:]
	p.id, p.name, p.capacity = len(s.pools), name, capacity
	s.pools = append(s.pools, p)
	return p
}

// NumTasks reports how many tasks the DAG holds.
func (s *Sim) NumTasks() int { return s.numTasks }

// task returns the task with the given id.
func (s *Sim) task(id int32) *Task { return &s.taskChunks[id/taskChunk][id%taskChunk] }

// succsOf returns t's successor ids.
func (s *Sim) succsOf(t *Task) []int32 { return s.succs[t.succOff : t.succOff+t.succLen] }

// newTask carves the next task from the arena, one chunk of taskChunk
// tasks at a time, and links it behind deps.
func (s *Sim) newTask(name Name, kind TaskKind, deps []*Task) *Task {
	if s.numTasks%taskChunk == 0 {
		s.taskChunks = append(s.taskChunks, make([]Task, 0, taskChunk))
	}
	last := len(s.taskChunks) - 1
	s.taskChunks[last] = append(s.taskChunks[last], Task{
		id:     int32(s.numTasks),
		engine: noIndex,
		pool:   noIndex,
		name:   name,
		kind:   kind,
	})
	t := &s.taskChunks[last][len(s.taskChunks[last])-1]
	s.numTasks++
	for _, d := range deps {
		if d == nil {
			continue
		}
		s.appendSucc(d, t.id)
		t.waiting++
	}
	s.pending++
	return t
}

// appendSucc records task id as a successor of d. A task's successors
// are a run in the shared slab whose capacity doubles from 1: a full run
// that ends the slab grows in place, any other moves to the end and
// leaves its old slots unused.
func (s *Sim) appendSucc(d *Task, id int32) {
	n := d.succLen
	if n == succCap(n) {
		c := max(1, 2*n)
		if need := len(s.succs) + int(c); need > cap(s.succs) {
			// Double the slab: append's gentler growth for large
			// slices would copy it several times more per build.
			grown := make([]int32, len(s.succs), max(need, 2*cap(s.succs), 1024))
			copy(grown, s.succs)
			s.succs = grown
		}
		if d.succOff+n != int32(len(s.succs)) {
			off := int32(len(s.succs))
			s.succs = append(s.succs, s.succs[d.succOff:d.succOff+n]...)
			d.succOff = off
		}
		s.succs = append(s.succs, make([]int32, c-n)...)
	}
	s.succs[d.succOff+n] = id
	d.succLen = n + 1
}

// succCap is the capacity of a successor run holding n ids: 0 for none,
// else the least power of two at least n.
func succCap(n int32) int32 {
	if n == 0 {
		return 0
	}
	return int32(1) << bits.Len32(uint32(n-1))
}

// Compute adds a task that occupies engine e for duration d once all deps
// have finished.
func (s *Sim) Compute(name Name, e *Engine, d Time, deps ...*Task) *Task {
	t := s.newTask(name, KindCompute, deps)
	t.engine = engineIndex(e)
	t.size = d
	return t
}

// Transfer adds a task that moves bytes across path, an id from NewPath,
// once all deps have finished. If engine is non-nil the transfer occupies it exclusively for
// its whole duration (a DMA copy engine). priority selects both the engine
// queue order and the bandwidth class.
func (s *Sim) Transfer(name Name, engine *Engine, path PathID, bytes float64, priority int, deps ...*Task) *Task {
	t := s.newTask(name, KindTransfer, deps)
	t.engine = engineIndex(engine)
	t.path = path
	t.size = bytes
	t.priority = int32(priority)
	return t
}

// Alloc adds a task that completes once amount bytes can be reserved in
// pool. Waiters are served FIFO.
func (s *Sim) Alloc(name Name, pool *MemPool, amount float64, deps ...*Task) *Task {
	t := s.newTask(name, KindAlloc, deps)
	t.pool = int32(pool.id)
	t.size = amount
	return t
}

// Free adds a task that returns amount bytes to pool once deps finish.
func (s *Sim) Free(name Name, pool *MemPool, amount float64, deps ...*Task) *Task {
	t := s.newTask(name, KindFree, deps)
	t.pool = int32(pool.id)
	t.size = amount
	return t
}

// After adds a zero-duration join node over deps.
func (s *Sim) After(name Name, deps ...*Task) *Task {
	return s.newTask(name, KindVirtual, deps)
}

func engineIndex(e *Engine) int32 {
	if e == nil {
		return noIndex
	}
	return int32(e.id)
}

// engineOf returns the engine t occupies, or nil.
func (s *Sim) engineOf(t *Task) *Engine {
	if t.engine == noIndex {
		return nil
	}
	return s.engines[t.engine]
}

// PathOf returns the resource path of a transfer task (nil otherwise).
func (s *Sim) PathOf(t *Task) []PathElem { return s.PathElems(t.path) }

// errRunTwice is Run's answer to a second call.
var errRunTwice = errors.New("sim: Run called twice")

// Run executes the DAG to completion and returns the makespan. It returns
// an error when the DAG deadlocks (tasks remain but no event can fire) or
// when a structured failure occurs: an Alloc larger than its pool's total
// capacity yields an *OOMError, a Free returning more bytes than are
// allocated yields a *MemAccountError, and a clock too coarse to finish a
// transfer yields a *StallError.
//
// A Sim runs once: a second Run returns an error and leaves the finished
// run untouched. After Run, the run's results are read from its tasks
// (Finished, Task.Start, Task.End) and resources.
func (s *Sim) Run() (Time, error) {
	if s.ran {
		return s.now, errRunTwice
	}
	s.ran = true
	sortCapEvents(s.capEvents)
	sortFailEvents(s.failEvents)
	// Each pending task finishes at most once.
	s.finished = slices.Grow(s.finished, s.pending)
	s.run()
	sortFinished(s.finished)
	s.finalizeIntegrity()
	switch {
	case s.err != nil:
		return s.now, s.err
	case s.pending > 0:
		return s.now, s.deadlockError()
	}
	return s.now, nil
}

// Finished returns the tasks Run completed, ordered by (end time, task
// id), a canonical order independent of how same-instant events
// interleave. A halted or deadlocked run lists only the tasks that
// finished before it stopped. The slice is the simulator's own.
func (s *Sim) Finished() []*Task { return s.finished }

// sortFinished puts a run's completions in (end time, task id) order.
// Tasks complete in clock order and the clock never goes back, so only
// each run of equal end times needs sorting.
func sortFinished(ts []*Task) {
	lo := 0
	for i := 1; i <= len(ts); i++ {
		if i < len(ts) && ts[i].endAt == ts[lo].endAt {
			continue
		}
		if i-lo > 1 {
			slices.SortFunc(ts[lo:i], func(a, b *Task) int { return cmp.Compare(a.id, b.id) })
		}
		lo = i
	}
}

// timeEpsilon groups events that complete within a femtosecond of each
// other, absorbing floating-point dust in rate arithmetic.
const timeEpsilon = 1e-15

// sortFlowsByID insertion-sorts a (small) completion batch by task id.
func sortFlowsByID(fs []*flow) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].task.id < fs[j-1].task.id; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func sortEngines(es []*Engine) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].id < es[j-1].id; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// StallError reports a run whose clock outgrew a transfer: at At one ulp
// of the clock is longer than the flow Task still has to go, so its
// predicted completion rounds onto the current instant and finishing it
// would take a step the clock cannot make.
type StallError struct {
	At   Time
	Task string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("sim: clock stalled at t=%g: transfer %q cannot finish in a step of the clock", e.At, e.Task)
}

// deadlockError reports the first few stuck tasks to aid debugging
// scheduler bugs.
func (s *Sim) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock with %d pending tasks at t=%g", s.pending, s.now)
	n := 0
	for _, c := range s.taskChunks {
		for i := range c {
			t := &c[i]
			if t.state == stateFinished {
				continue
			}
			if n < 8 {
				fmt.Fprintf(&b, "\n  task %d %q (%s) state=%d waiting=%d", t.id, s.TaskName(t), t.kind, t.state, t.waiting)
			}
			n++
		}
	}
	if n > 8 {
		fmt.Fprintf(&b, "\n  ... and %d more", n-8)
	}
	return fmt.Errorf("%s", b.String())
}
