// Package trace collects execution metrics from simulator runs: per-flow
// achieved bandwidth (the CDFs of Figures 2, 7, 11 and 16), communication
// traffic accounting (Figure 6), and compute/communication overlap
// analysis (the non-overlapped communication time of Figure 8). Every
// metric aggregates what one run leaves behind, so a Recorder reads the
// run's finished tasks once Sim.Run returns. Schedulers tag the tasks
// they want recorded (sim.Task.SetTag); Tag and Kind are the simulator's
// own types, re-exported here, and a task carries its tag by value.
package trace

import (
	"slices"

	"mobius/internal/sim"
)

// Kind classifies a traced task for traffic accounting.
type Kind = sim.TagKind

// Task kinds attached via Tag.
const (
	KindCompute     = sim.TagCompute
	KindParamUpload = sim.TagParamUpload // DRAM -> GPU stage parameters
	KindActOffload  = sim.TagActOffload  // GPU -> DRAM checkpointed activations
	KindActUpload   = sim.TagActUpload   // DRAM -> GPU activations for backward
	KindActTransfer = sim.TagActTransfer // GPU -> GPU boundary activations / act gradients
	KindGradFlush   = sim.TagGradFlush   // GPU -> DRAM gradients
	KindCollective  = sim.TagCollective  // ZeRO all-gather / all-reduce traffic
	KindCheckpoint  = sim.TagCheckpoint  // DRAM -> DRAM/SSD periodic state snapshot
)

// Tag is the metadata schedulers attach to simulator tasks
// (sim.Task.SetTag): the task's kind, GPU, peer GPU, stage and
// microbatch, stored by value in the task.
type Tag = sim.Tag

// FlowRecord is one completed transfer.
type FlowRecord struct {
	Tag        Tag
	Start, End float64
	Bytes      float64
}

// Bandwidth returns the flow's achieved bandwidth in bytes/second.
func (f FlowRecord) Bandwidth() float64 {
	d := f.End - f.Start
	if d <= 0 {
		return 0
	}
	return f.Bytes / d
}

// ComputeRecord is one completed compute task.
type ComputeRecord struct {
	Tag        Tag
	Start, End float64
}

// Recorder holds the flow and compute records of one run's tagged tasks,
// in the run's (end time, task id) completion order. Untagged tasks are
// ignored.
type Recorder struct {
	Flows    []FlowRecord
	Computes []ComputeRecord
}

// NewRecorder returns an empty recorder; fill it with Record after
// sim.Run.
func NewRecorder() *Recorder { return &Recorder{} }

// Grow reserves room for flows more flow records and computes more
// compute records, so a scheduler that knows the size of its DAG records
// a step without regrowing the buffers.
func (r *Recorder) Grow(flows, computes int) {
	r.Flows = slices.Grow(r.Flows, flows)
	r.Computes = slices.Grow(r.Computes, computes)
}

// Record appends the records of a run's finished tasks, in the order
// given: pass sim.Sim.Finished after Run, on every path — a halted or
// deadlocked run records the tasks that finished before it stopped.
// Transfers with payload become flow records, computes compute records.
func (r *Recorder) Record(finished []*sim.Task) {
	for _, t := range finished {
		tag, ok := t.Tag()
		if !ok {
			continue
		}
		switch t.Kind() {
		case sim.KindTransfer:
			if t.Bytes() > 0 {
				r.Flows = append(r.Flows, FlowRecord{Tag: tag, Start: t.Start(), End: t.End(), Bytes: t.Bytes()})
			}
		case sim.KindCompute:
			r.Computes = append(r.Computes, ComputeRecord{Tag: tag, Start: t.Start(), End: t.End()})
		}
	}
}

// TotalBytes sums transferred bytes over flows matching the filter (nil
// matches everything).
func (r *Recorder) TotalBytes(match func(Tag) bool) float64 {
	var total float64
	for _, f := range r.Flows {
		if match == nil || match(f.Tag) {
			total += f.Bytes
		}
	}
	return total
}

// BandwidthCDF builds the byte-weighted CDF of achieved flow bandwidth
// over flows matching the filter, reproducing the methodology of
// Figures 2 and 7: "fraction of data transferred at bandwidth <= x".
// The CDF is built in one buffer sized to the matching flows.
func (r *Recorder) BandwidthCDF(match func(Tag) bool) CDF {
	n := len(r.Flows)
	if match != nil {
		n = 0
		for _, f := range r.Flows {
			if match(f.Tag) {
				n++
			}
		}
	}
	samples := make([]Sample, 0, n)
	for _, f := range r.Flows {
		if match == nil || match(f.Tag) {
			samples = append(samples, Sample{Value: f.Bandwidth(), Weight: f.Bytes})
		}
	}
	return cdfOf(samples)
}

// interval is a half-open time span.
type interval struct{ a, b float64 }

// normalize sorts and merges intervals into a disjoint ascending set.
func normalize(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	slices.SortFunc(iv, func(x, y interval) int { return compareLess(x.a, y.a) })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.a <= last.b {
			if x.b > last.b {
				last.b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// subtractLength returns the measure of union(A) \ union(B).
func subtractLength(a, b []interval) float64 {
	a = normalize(a)
	b = normalize(b)
	var total float64
	bi := 0
	for _, x := range a {
		lo := x.a
		for bi < len(b) && b[bi].b <= lo {
			bi++
		}
		bj := bi
		for lo < x.b {
			if bj >= len(b) || b[bj].a >= x.b {
				total += x.b - lo
				break
			}
			if b[bj].a > lo {
				total += b[bj].a - lo
			}
			if b[bj].b >= x.b {
				break
			}
			lo = b[bj].b
			bj++
		}
	}
	return total
}

// flowTouches reports whether the flow involves the given GPU.
func flowTouches(tag Tag, gpu int) bool {
	return tag.GPU == gpu || tag.PeerGPU == gpu
}

// NonOverlappedComm returns, for one GPU, the communication time not
// hidden by that GPU's computation, i.e. |union(comm) \ union(compute)|.
func (r *Recorder) NonOverlappedComm(gpu int) float64 {
	var comm, comp []interval
	for _, f := range r.Flows {
		if flowTouches(f.Tag, gpu) {
			comm = append(comm, interval{f.Start, f.End})
		}
	}
	for _, c := range r.Computes {
		if c.Tag.GPU == gpu {
			comp = append(comp, interval{c.Start, c.End})
		}
	}
	return subtractLength(comm, comp)
}

// NonOverlappedCommFraction averages NonOverlappedComm over GPUs and
// normalizes by the step time — the y-axis of Figure 8. It buckets the
// records by GPU instead of scanning them all once per GPU: one pass
// counts, one fills buckets carved from a single array, each in record
// order as NonOverlappedComm collects it.
func (r *Recorder) NonOverlappedCommFraction(numGPUs int, stepTime float64) float64 {
	if stepTime <= 0 || numGPUs <= 0 {
		return 0
	}
	// Bucket 2g holds GPU g's flows, bucket 2g+1 its computes.
	each := func(visit func(bucket int, iv interval)) {
		for _, f := range r.Flows {
			iv := interval{f.Start, f.End}
			if g := f.Tag.GPU; g >= 0 && g < numGPUs {
				visit(2*g, iv)
			}
			if h := f.Tag.PeerGPU; h != f.Tag.GPU && h >= 0 && h < numGPUs {
				visit(2*h, iv)
			}
		}
		for _, c := range r.Computes {
			if g := c.Tag.GPU; g >= 0 && g < numGPUs {
				visit(2*g+1, interval{c.Start, c.End})
			}
		}
	}
	counts := make([]int, 2*numGPUs)
	total := 0
	each(func(b int, _ interval) { counts[b]++; total++ })
	buckets := make([][]interval, 2*numGPUs)
	buf := make([]interval, total)
	for b, n := range counts {
		buckets[b], buf = buf[:0:n], buf[n:]
	}
	each(func(b int, iv interval) { buckets[b] = append(buckets[b], iv) })
	var sum float64
	for g := 0; g < numGPUs; g++ {
		sum += subtractLength(buckets[2*g], buckets[2*g+1])
	}
	return sum / (float64(numGPUs) * stepTime)
}
