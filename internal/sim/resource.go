package sim

// Resource is a bandwidth-shared link, such as a PCIe lane bundle or a CPU
// root complex. Capacity is in bytes per second. Flows crossing the
// resource concurrently share the capacity under max-min fairness with
// strict priorities (see flow.go).
type Resource struct {
	id       int
	name     string
	capacity float64

	// residual is scratch state used during rate computation.
	residual float64
	// demand is scratch: sum of weights of unfixed flows on this resource.
	demand float64
	// binding is per-round scratch: the resource was the bottleneck of the
	// current water-filling round.
	binding bool
	// carried accumulates the bytes that crossed the resource.
	carried float64
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

// PathID names a path registered with NewPath; a transfer carries it
// in place of the path's elements. The zero PathID, NoPath, is the empty
// path: a transfer across it is unconstrained by any resource.
type PathID int32

// NoPath is the empty path.
const NoPath PathID = 0

// NewPath registers the path across resources and returns its id. A
// resource listed more than once becomes one element whose weight counts
// its crossings, so the fair-share computation accounts for a double
// crossing; nil resources are skipped, and a path with no resource left
// is NoPath. Every call registers a new path: callers that route many
// transfers over the same hops keep the id (hw.Server.Route does, per
// endpoint pair).
func (s *Sim) NewPath(resources ...*Resource) PathID {
	// The elements are carved from a slab, like the hardware registry.
	if cap(s.pathSlab)-len(s.pathSlab) < len(resources) {
		s.pathSlab = make([]PathElem, 0, max(64, len(resources)))
	}
	out := s.pathSlab[len(s.pathSlab):]
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
	if len(out) == 0 {
		return NoPath
	}
	s.pathSlab = s.pathSlab[:len(s.pathSlab)+len(out)]
	s.paths = append(s.paths, out[:len(out):len(out)])
	return PathID(len(s.paths))
}

// PathElems returns the elements of path id, in registration order; nil
// for NoPath. The slice is the simulator's own.
func (s *Sim) PathElems(id PathID) []PathElem {
	if id == NoPath {
		return nil
	}
	return s.paths[id-1]
}
