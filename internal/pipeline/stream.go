package pipeline

import (
	"strconv"

	"mobius/internal/sim"
)

// StreamBuilder is the construction layer BuildMobius emits through. It
// adds three things a pipeline schedule needs on top of the simulator's
// task constructors:
//
//   - staged dependencies: Dep stages one predecessor at a time into a
//     reused buffer, and the next emitted task consumes the staged set in
//     staging order, exactly as the equivalent variadic call lists it;
//   - compact struct-of-arrays task storage: the stage×microbatch
//     forward/backward/offload handles live in three flat arrays indexed
//     by j*M+m instead of S separately allocated inner slices, and the
//     per-stage free tasks in two more — six allocations total however
//     large the schedule;
//   - allocation-lean task names through the embedded Namer.
//
// At 100k tasks this keeps DAG construction a single-digit fraction of
// step wall-clock instead of dominating it (see EXPERIMENTS.md).
type StreamBuilder struct {
	s    *sim.Sim
	deps []*sim.Task
	S, M int

	fwd, bwd, off []*sim.Task // flat [S*M] stage×microbatch handles
	freeF, freeB  []*sim.Task // per-stage frees
	Namer
}

// NewStreamBuilder returns a builder for an S-stage, M-microbatch
// schedule emitting into s.
func NewStreamBuilder(s *sim.Sim, S, M int) *StreamBuilder {
	n := S * M
	return &StreamBuilder{
		s:     s,
		deps:  make([]*sim.Task, 0, 8),
		S:     S,
		M:     M,
		fwd:   make([]*sim.Task, n),
		bwd:   make([]*sim.Task, n),
		off:   make([]*sim.Task, n),
		freeF: make([]*sim.Task, S),
		freeB: make([]*sim.Task, S),
	}
}

// Dep stages a dependency for the next emitted task. Nil is ignored, so
// optional predecessors ("previous microbatch, if any") stage cleanly.
// Returns the builder for chaining.
func (sb *StreamBuilder) Dep(t *sim.Task) *StreamBuilder {
	if t != nil {
		sb.deps = append(sb.deps, t)
	}
	return sb
}

// staged hands the staged dependencies to one constructor call and
// clears the buffer for the next task.
func (sb *StreamBuilder) staged() []*sim.Task {
	deps := sb.deps
	sb.deps = sb.deps[:0]
	return deps
}

// Compute emits a compute task over the staged deps; see sim.Sim.Compute.
func (sb *StreamBuilder) Compute(name string, e *sim.Engine, d sim.Time) *sim.Task {
	return sb.s.Compute(name, e, d, sb.staged()...)
}

// Transfer emits a transfer task over the staged deps; see
// sim.Sim.Transfer.
func (sb *StreamBuilder) Transfer(name string, engine *sim.Engine, path []sim.PathElem, bytes float64, priority int) *sim.Task {
	return sb.s.Transfer(name, engine, path, bytes, priority, sb.staged()...)
}

// Alloc emits a pool reservation over the staged deps; see sim.Sim.Alloc.
func (sb *StreamBuilder) Alloc(name string, pool *sim.MemPool, amount float64) *sim.Task {
	return sb.s.Alloc(name, pool, amount, sb.staged()...)
}

// Free emits a pool release over the staged deps; see sim.Sim.Free.
func (sb *StreamBuilder) Free(name string, pool *sim.MemPool, amount float64) *sim.Task {
	return sb.s.Free(name, pool, amount, sb.staged()...)
}

// After emits a zero-duration join over the staged deps.
func (sb *StreamBuilder) After(name string) *sim.Task {
	return sb.s.After(name, sb.staged()...)
}

// F and SetF access the forward compute of stage j, microbatch m.
func (sb *StreamBuilder) F(j, m int) *sim.Task       { return sb.fwd[j*sb.M+m] }
func (sb *StreamBuilder) SetF(j, m int, t *sim.Task) { sb.fwd[j*sb.M+m] = t }

// B and SetB access the backward compute of stage j, microbatch m.
func (sb *StreamBuilder) B(j, m int) *sim.Task       { return sb.bwd[j*sb.M+m] }
func (sb *StreamBuilder) SetB(j, m int, t *sim.Task) { sb.bwd[j*sb.M+m] = t }

// Off and SetOff access stage j's activation offload for microbatch m
// (nil when the stage emits no boundary checkpoint).
func (sb *StreamBuilder) Off(j, m int) *sim.Task       { return sb.off[j*sb.M+m] }
func (sb *StreamBuilder) SetOff(j, m int, t *sim.Task) { sb.off[j*sb.M+m] = t }

// FreeF/SetFreeF and FreeB/SetFreeB access the per-stage free tasks.
func (sb *StreamBuilder) FreeF(j int) *sim.Task       { return sb.freeF[j] }
func (sb *StreamBuilder) SetFreeF(j int, t *sim.Task) { sb.freeF[j] = t }
func (sb *StreamBuilder) FreeB(j int) *sim.Task       { return sb.freeB[j] }
func (sb *StreamBuilder) SetFreeB(j int, t *sim.Task) { sb.freeB[j] = t }

// Namer formats task names through one reusable byte buffer with
// strconv: one string allocation per name and no fmt machinery, which at
// 100k tasks was a measurable slice of construction wall-clock. Every
// scheduler here (Mobius, GPipe and the ZeRO baselines) names its tasks
// through it; the zero value is ready to use.
type Namer struct{ buf []byte }

// Name formats prefix+j+suffix ("allocF3", "CB7.pre", "gf2.done").
func (n *Namer) Name(prefix string, j int, suffix string) string {
	n.buf = strconv.AppendInt(append(n.buf[:0], prefix...), int64(j), 10)
	n.buf = append(n.buf, suffix...)
	return string(n.buf)
}

// Name2 formats prefix+j+sep+k ("F3.7", "F3.g1", "gf2.shard1").
func (n *Namer) Name2(prefix string, j int, sep string, k int) string {
	n.buf = strconv.AppendInt(append(n.buf[:0], prefix...), int64(j), 10)
	n.buf = strconv.AppendInt(append(n.buf, sep...), int64(k), 10)
	return string(n.buf)
}

// Name3 formats prefix+j+sep+k+sep2+l ("RS3.g1-2", "gf2.ag0-1").
func (n *Namer) Name3(prefix string, j int, sep string, k int, sep2 string, l int) string {
	n.buf = strconv.AppendInt(append(n.buf[:0], prefix...), int64(j), 10)
	n.buf = strconv.AppendInt(append(n.buf, sep...), int64(k), 10)
	n.buf = strconv.AppendInt(append(n.buf, sep2...), int64(l), 10)
	return string(n.buf)
}
