package pipeline

import (
	"strconv"

	"mobius/internal/sim"
)

// StreamBuilder is the streaming construction layer BuildMobius emits
// through. It wraps sim.Builder (staged dependencies, slab-backed task
// and successor storage) with the two things a pipeline schedule needs
// on top:
//
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
	*sim.Builder
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
		Builder: s.NewBuilder(),
		S:       S,
		M:       M,
		fwd:     make([]*sim.Task, n),
		bwd:     make([]*sim.Task, n),
		off:     make([]*sim.Task, n),
		freeF:   make([]*sim.Task, S),
		freeB:   make([]*sim.Task, S),
	}
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
