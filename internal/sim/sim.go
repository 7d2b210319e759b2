package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Observer receives task lifecycle notifications. The trace package
// implements Observer to collect bandwidth statistics and timelines.
//
// Notifications are buffered during Run and dispatched when it returns,
// sorted by (time, task id, start-before-finish). The order is canonical
// across scheduler modes: the incremental scheduler and the test oracle
// deliver the same sequence for the same DAG.
type Observer interface {
	// TaskStarted fires when a task begins running (a compute occupies its
	// engine, a transfer's flow is admitted, an alloc succeeds).
	TaskStarted(t *Task, at Time)
	// TaskFinished fires when a task completes.
	TaskFinished(t *Task, at Time)
}

// Sim owns the simulated hardware (resources, engines, pools) and the work
// DAG, and executes the DAG to completion. The event loop lives in
// loop.go, rate computation in flow.go and component.go.
type Sim struct {
	now     Time
	pending int
	tasks   []*Task

	observers []Observer

	resources []*Resource
	engines   []*Engine
	pools     []*MemPool

	// TransferLatency is the fixed per-transfer setup time applied to
	// every Transfer task (DMA descriptor setup, host staging
	// synchronization, framework launch overhead). Zero by default; the
	// hardware layer sets a topology-appropriate value.
	TransferLatency Time

	// RetryPolicy, when non-nil, is consulted once per transfer task as
	// it starts; see the RetryPolicy type in inject.go.
	RetryPolicy RetryPolicy

	// CorruptionPolicy, when non-nil, is consulted per delivery attempt
	// of every transfer with payload; see corrupt.go.
	CorruptionPolicy CorruptionPolicy

	// Checksums configures end-to-end transfer checksums (detection and
	// retransmit of injected corruption); the zero value disables them.
	Checksums ChecksumConfig

	// integrity aggregates corruption/detection bookkeeping, derived from
	// per-task counters by finalizeIntegrity when Run returns.
	integrity IntegrityStats

	// rateOracle switches rate computation to the retained global
	// reference implementation (every live component, every event) —
	// test-only; the differential tests assert it is schedule-identical
	// to the incremental path.
	rateOracle bool

	// Scheduled capacity changes and permanent failures (fault
	// injection), applied in time order; nextCap and nextFail are the
	// event loop's cursors into them.
	capEvents  []capEvent
	nextCap    int
	failEvents []failEvent
	nextFail   int

	// started records that a Run consumed builder-time state: tasks added
	// after a Run continue the existing schedule, whose in-flight
	// event-loop state is kept. prepared records that the event-loop
	// state was reset for the current run (see begin).
	started  bool
	prepared bool
	// ran short-circuits repeated Run calls: the DAG is executed once and
	// (now, finalErr) replayed until new tasks arrive or Reset is called.
	ran      bool
	finalErr error

	// err is the first structured failure of the last run (invariant
	// checks distinguish halted from completed runs by it).
	err error

	// ready is the instantaneous-cascade worklist, consumed FIFO through
	// readyHead so the backing array is reused instead of abandoned one
	// pop at a time; drain resets both once the queue empties.
	ready     []*Task
	readyHead int

	flows []*flow

	ratesDirty bool
	computes   computeHeap
	flowQueue  flowHeap

	// Component state (component.go). ufGen advances once per fresh run
	// and compVisit once per oracle sweep; neither is ever reset, so a
	// mark a previous run left on a Resource or component can never read
	// as current.
	dirtyComps []*component
	compPool   []*component
	ufGen      uint64
	compVisit  uint64

	// Scratch reused across events (allocation-free steady state).
	prioScratch    []int
	classBuckets   [][]*flow
	fixedScratch   []bool
	resScratch     []*Resource
	compScratch    []*component
	rebuildScratch []*flow
	doneScratch    []*flow
	doneTasks      []*Task
	kicked         []*Engine
	flowPool       []*flow
	flowSlab       []flow

	events []obsEvent // buffered observer notifications

	// High-water marks since the last public Reset. Reset uses them to
	// shrink pooled buffers a larger earlier run left pinned (reset.go);
	// they cost one comparison at each growth site.
	eventsHWM int
	flowsHWM  int
	readyHWM  int

	// Arenas DAG construction carves from: Task structs, successor-edge
	// slices, and the hardware registry (resources, engines, pools) all
	// come from chunked slabs instead of one allocation per object;
	// pathCache backs the Path interning method (resource.go).
	taskSlab  []Task
	succSlab  []*Task
	resSlab   []Resource
	engSlab   []Engine
	poolSlab  []MemPool
	pathCache map[pathKey][]PathElem
}

// New creates an empty simulator.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Observe registers an observer for task lifecycle events.
func (s *Sim) Observe(o Observer) { s.observers = append(s.observers, o) }

// NewResource adds a bandwidth-shared resource with the given capacity in
// bytes per second.
func (s *Sim) NewResource(name string, capacity float64) *Resource {
	if len(s.resSlab) == 0 {
		s.resSlab = make([]Resource, 64)
	}
	r := &s.resSlab[0]
	s.resSlab = s.resSlab[1:]
	r.id, r.name, r.capacity, r.baseCapacity = len(s.resources), name, capacity, capacity
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
	p.id, p.name, p.capacity, p.baseCapacity = len(s.pools), name, capacity, capacity
	s.pools = append(s.pools, p)
	return p
}

// NumTasks reports how many tasks the DAG holds.
func (s *Sim) NumTasks() int { return len(s.tasks) }

// allocTask carves a Task from the arena: DAG construction allocates one
// 256-task chunk at a time instead of one object per task.
func (s *Sim) allocTask() *Task {
	if len(s.taskSlab) == 0 {
		s.taskSlab = make([]Task, 256)
	}
	t := &s.taskSlab[0]
	s.taskSlab = s.taskSlab[1:]
	return t
}

// succCarve cuts a zero-length, cap-n successor slice from the shared
// slab; growth beyond succHeapCap falls back to ordinary heap appends
// (rare wide fan-out), keeping slab waste bounded.
const succHeapCap = 16

func (s *Sim) succCarve(n int) []*Task {
	if len(s.succSlab) < n {
		s.succSlab = make([]*Task, 2048)
	}
	out := s.succSlab[:0:n]
	s.succSlab = s.succSlab[n:]
	return out
}

// appendSucc records t as a successor of d. Small successor lists are
// carved from the slab (one allocation per 2048 edges instead of one per
// task with successors); lists past succHeapCap grow on the heap.
func (s *Sim) appendSucc(d, t *Task) {
	if len(d.succs) == cap(d.succs) && cap(d.succs) < succHeapCap {
		nc := cap(d.succs) * 2
		if nc == 0 {
			nc = 2
		}
		ns := s.succCarve(nc)
		ns = append(ns, d.succs...)
		d.succs = ns
	}
	d.succs = append(d.succs, t)
}

func (s *Sim) newTask(name string, kind TaskKind, deps []*Task) *Task {
	t := s.allocTask()
	t.id = len(s.tasks)
	t.name = name
	t.kind = kind
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.state == stateFinished {
			continue
		}
		s.appendSucc(d, t)
		t.waiting++
	}
	t.initWaiting = t.waiting
	s.tasks = append(s.tasks, t)
	s.pending++
	s.ran = false
	return t
}

// Compute adds a task that occupies engine e for duration d once all deps
// have finished.
func (s *Sim) Compute(name string, e *Engine, d Time, deps ...*Task) *Task {
	t := s.newTask(name, KindCompute, deps)
	t.engine = e
	t.duration = d
	return t
}

// Transfer adds a task that moves bytes across path once all deps have
// finished. If engine is non-nil the transfer occupies it exclusively for
// its whole duration (a DMA copy engine). priority selects both the engine
// queue order and the bandwidth class.
func (s *Sim) Transfer(name string, engine *Engine, path []PathElem, bytes float64, priority int, deps ...*Task) *Task {
	t := s.newTask(name, KindTransfer, deps)
	t.engine = engine
	t.path = path
	t.bytes = bytes
	t.priority = priority
	return t
}

// Alloc adds a task that completes once amount bytes can be reserved in
// pool. Waiters are served FIFO.
func (s *Sim) Alloc(name string, pool *MemPool, amount float64, deps ...*Task) *Task {
	t := s.newTask(name, KindAlloc, deps)
	t.pool = pool
	t.amount = amount
	return t
}

// Free adds a task that returns amount bytes to pool once deps finish.
func (s *Sim) Free(name string, pool *MemPool, amount float64, deps ...*Task) *Task {
	t := s.newTask(name, KindFree, deps)
	t.pool = pool
	t.amount = amount
	return t
}

// After adds a zero-duration join node over deps.
func (s *Sim) After(name string, deps ...*Task) *Task {
	return s.newTask(name, KindVirtual, deps)
}

// Run executes the DAG to completion and returns the makespan. It returns
// an error when the DAG deadlocks (tasks remain but no event can fire) or
// when a structured failure occurs: an Alloc larger than its pool's total
// capacity yields an *OOMError, a Free returning more bytes than are
// allocated yields a *MemAccountError.
//
// Calling Run again without changing the DAG replays the recorded result;
// tasks added after a Run continue the existing schedule.
func (s *Sim) Run() (Time, error) {
	if s.ran {
		return s.now, s.finalErr
	}
	sortCapEvents(s.capEvents)
	sortFailEvents(s.failEvents)
	s.begin()
	// Test harnesses drain tasks through the event loop directly before
	// Run; recount so pending matches actual task state.
	pending := 0
	for _, t := range s.tasks {
		if t.state != stateFinished {
			pending++
		}
	}
	s.pending = pending
	s.run()

	s.started = true
	s.ran = true
	switch {
	case s.err != nil:
		s.finalErr = s.err
	case s.pending > 0:
		s.finalErr = s.deadlockError()
	default:
		s.finalErr = nil
	}
	s.finalizeIntegrity()
	s.dispatchEvents()
	return s.now, s.finalErr
}

// dispatchEvents delivers the run's buffered observer notifications in
// the canonical (time, task id, start-before-finish) order. Keys are
// strictly unique — a task starts and finishes at most once — so the
// comparison is a total order.
func (s *Sim) dispatchEvents() {
	if len(s.observers) == 0 {
		return
	}
	evs := s.events
	if len(evs) > s.eventsHWM {
		s.eventsHWM = len(evs)
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.task.id != b.task.id {
			return a.task.id < b.task.id
		}
		return !a.finish && b.finish
	})
	for _, ev := range evs {
		if ev.finish {
			for _, o := range s.observers {
				o.TaskFinished(ev.task, ev.at)
			}
		} else {
			for _, o := range s.observers {
				o.TaskStarted(ev.task, ev.at)
			}
		}
	}
	for i := range evs {
		evs[i] = obsEvent{}
	}
	s.events = evs[:0]
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

// deadlockError reports the first few stuck tasks to aid debugging
// scheduler bugs.
func (s *Sim) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock with %d pending tasks at t=%g", s.pending, s.now)
	n := 0
	for _, t := range s.tasks {
		if t.state == stateFinished {
			continue
		}
		if n < 8 {
			fmt.Fprintf(&b, "\n  %v state=%d waiting=%d", t, t.state, t.waiting)
		}
		n++
	}
	if n > 8 {
		fmt.Fprintf(&b, "\n  ... and %d more", n-8)
	}
	return fmt.Errorf("%s", b.String())
}

// computeHeap orders running compute tasks by completion time.
type computeHeap []*Task

func (h computeHeap) Len() int { return len(h) }

func (h computeHeap) Less(i, j int) bool {
	if h[i].endAt != h[j].endAt {
		return h[i].endAt < h[j].endAt
	}
	return h[i].id < h[j].id
}

func (h computeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *computeHeap) Push(x any) { *h = append(*h, x.(*Task)) }

func (h *computeHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
