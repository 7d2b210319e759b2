package sim

// Resource is a bandwidth-shared link, such as a PCIe lane bundle or a CPU
// root complex. Capacity is in bytes per second. Flows crossing the
// resource concurrently share the capacity under max-min fairness with
// strict priorities (see flow.go).
type Resource struct {
	id       int
	name     string
	capacity float64

	// baseCapacity is the construction-time capacity; rewind/Reset
	// restore it (scheduled capacity events mutate capacity mid-run).
	baseCapacity float64

	// residual is scratch state used during rate computation.
	residual float64
	// demand is scratch: sum of weights of unfixed flows on this resource.
	demand float64
	// binding is per-round scratch: the resource was the bottleneck of the
	// current water-filling round.
	binding bool
	// carried accumulates the bytes that crossed the resource.
	carried float64

	// Union-find state grouping resources into connected components of
	// active flows (see component.go). ufGen lazily invalidates the
	// structure: a resource whose generation differs from the run's
	// reads as a fresh singleton. comp is only meaningful on a root.
	ufParent *Resource
	ufRank   int
	ufGen    uint64
	comp     *component

	// listedComp/listedGen track which component's cached resource list
	// this resource sits on (see component.resources); the generation
	// guard makes entries written by a previous run read as absent.
	listedComp *component
	listedGen  uint64
}

// Name returns the resource's label.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource's bandwidth in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Carried returns the total bytes that crossed the resource (weighted:
// a double-crossing transfer counts twice).
func (r *Resource) Carried() float64 { return r.carried }

// Utilization returns the fraction of the resource's capacity used over
// the given duration (typically the makespan).
func (r *Resource) Utilization(duration float64) float64 {
	if duration <= 0 || r.capacity <= 0 {
		return 0
	}
	return r.carried / (r.capacity * duration)
}

// PathElem is one hop of a transfer path. Weight is the number of bytes
// consumed on the resource per payload byte; a staged GPU-to-GPU copy that
// crosses the same root complex twice uses Weight 2 on that resource.
type PathElem struct {
	Res    *Resource
	Weight float64
}

// pathKey is the comparable interning key for a merged path of up to
// five hops (a staged cross-root-complex GPU-to-GPU copy: link, RC, DRAM
// bus, RC, link): resource ids and weights, not strings, so interning
// costs a small array compare/hash.
type pathKey struct {
	n    int
	hops [5]struct {
		res    int32
		weight float64
	}
}

// Path is the interning variant of the package-level Path constructor:
// structurally identical paths (same resources, same merged weights)
// return the same shared []PathElem slice. DAG builders that route many
// transfers over the same few hardware paths (every pipeline schedule
// does) construct each distinct path once instead of once per transfer.
// Paths longer than five merged hops are passed through uninterned.
func (s *Sim) Path(resources ...*Resource) []PathElem {
	// Build the interning key straight from the arguments — the merged
	// slice is materialized only on a cache miss, so the hot hit path
	// (every transfer after the first on a route) allocates nothing.
	var k pathKey
	for _, r := range resources {
		if r == nil {
			continue
		}
		merged := false
		for i := 0; i < k.n; i++ {
			if k.hops[i].res == int32(r.id) {
				k.hops[i].weight++
				merged = true
				break
			}
		}
		if !merged {
			if k.n == 5 {
				// More than five merged hops: pass through uninterned.
				return Path(resources...)
			}
			k.hops[k.n].res = int32(r.id)
			k.hops[k.n].weight = 1
			k.n++
		}
	}
	if q, ok := s.pathCache[k]; ok {
		return q
	}
	p := Path(resources...)
	if s.pathCache == nil {
		s.pathCache = make(map[pathKey][]PathElem)
	}
	s.pathCache[k] = p
	return p
}

// Path is a convenience constructor for a unit-weight path, merging
// duplicate resources into a single element with summed weight so the
// fair-share computation accounts for double crossings correctly.
func Path(resources ...*Resource) []PathElem {
	out := make([]PathElem, 0, len(resources))
	for _, r := range resources {
		if r == nil {
			continue
		}
		merged := false
		for i := range out {
			if out[i].Res == r {
				out[i].Weight++
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, PathElem{Res: r, Weight: 1})
		}
	}
	return out
}
