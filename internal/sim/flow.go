package sim

import "math"

// flow is an in-flight transfer task: remaining payload bytes plus the
// rate currently assigned by the fair-sharing computation. Progress is
// lazy (see settleFlow): remaining and per-resource carried accounting
// are settled only when the rate actually changes or the flow completes,
// with lastUpdate recording the instant the stored remaining was exact.
type flow struct {
	task *Task
	// path is the task's resource path, read by PathOf at admission.
	path      []PathElem
	remaining float64
	rate      float64

	// nextRate is scratch written by waterFill; applyRates promotes it to
	// rate (settling first) only when it differs bitwise, so unperturbed
	// flows keep their prediction and heap position untouched.
	nextRate float64

	// lastUpdate is the simulated instant remaining was last settled.
	lastUpdate Time
	// pred is the predicted completion time (lastUpdate+remaining/rate),
	// the flow's key in Sim.flowQueue.
	pred Time
	// heapIdx is the flow's position in Sim.flowQueue (-1 when absent).
	heapIdx int
	// listIdx is the flow's position in Sim.flows.
	listIdx int
}

// infiniteRate stands in for an unconstrained transfer (empty path).
const infiniteRate = 1e30

// predSlackFloor is the absolute remaining-bytes tolerance under which a
// flow counts as complete regardless of rate (matching the completion
// slack in Sim.advance).
const predSlackFloor = 1e-9

// predict returns the completion-time key for the heap. A starved flow
// (rate 0 in a lower priority class) never completes on its own, unless
// its remaining payload is already within the completion slack.
func (f *flow) predict() Time {
	if f.rate > 0 {
		return f.lastUpdate + f.remaining/f.rate
	}
	if f.remaining <= predSlackFloor {
		return f.lastUpdate
	}
	return math.Inf(1)
}

// settleFlow brings f's lazy accounting up to the current clock: the
// payload transferred since lastUpdate is subtracted from remaining and
// added to each path resource's carried counter. Rates are piecewise
// constant between recomputes, so settling only at rate changes and
// completion is exact.
func (s *Sim) settleFlow(f *flow) {
	dt := s.now - f.lastUpdate
	if dt > 0 && f.rate != 0 {
		f.remaining -= f.rate * dt
		for _, pe := range f.path {
			pe.Res.carried += f.rate * pe.Weight * dt
		}
	}
	f.lastUpdate = s.now
}

// settleAllFlows settles every active flow; called once when the event
// loop exits so utilization accounting and invariant checks see fully
// settled state even on halted runs.
func (s *Sim) settleAllFlows() {
	for _, f := range s.flows {
		s.settleFlow(f)
	}
}

// recomputeRates reassigns rates after the flow set or capacities
// changed, using strict-priority max-min fairness (progressive filling /
// water-filling):
//
//  1. The active flows are grouped by priority; higher classes are
//     served first against the residual capacity left by the classes
//     above them.
//  2. Within a class, rates are max-min fair: repeatedly find the most
//     congested resource, freeze every unfixed flow crossing it at that
//     resource's fair share, and subtract their consumption.
//
// A flow with PathElem weight w consumes w bytes of resource capacity per
// payload byte, which models staged transfers that cross a root complex
// twice.
//
// One fill covers every active flow. On a server every path but a GPU
// pair's on a P2P NVLink server crosses the DRAM bus, so the active
// flows share one resource and no event could leave part of them
// untouched.
//
// The computation allocates nothing per event: it reuses the
// scratch slices on Sim and the scratch fields on Resource
// (residual/demand reset per fill, the per-round binding flag), and
// serves the flows in the order of Sim.flows, so no per-call sort is
// needed.
func (s *Sim) recomputeRates() {
	if !s.ratesDirty {
		return
	}
	s.ratesDirty = false
	set := s.flows
	if len(set) == 0 {
		return
	}
	for _, r := range s.resources {
		r.residual = r.capacity
		r.demand = 0
	}

	// Bucket the set by priority in ONE pass: each flow is appended to
	// its class's reusable scratch slice, preserving the relative order
	// of the flow list. The distinct class count is tiny, so the
	// per-flow class lookup is a short linear probe, not a map.
	prios := s.prioScratch[:0]
	buckets := s.classBuckets
	for _, f := range set {
		p := f.task.priority
		k := -1
		for i, q := range prios {
			if q == p {
				k = i
				break
			}
		}
		if k < 0 {
			k = len(prios)
			prios = append(prios, p)
			if k < len(buckets) {
				buckets[k] = buckets[k][:0]
			} else {
				buckets = append(buckets, nil)
			}
		}
		buckets[k] = append(buckets[k], f)
	}
	// Serve classes highest priority first (insertion sort over the tiny
	// distinct-class list, buckets swapped in tandem).
	for i := 1; i < len(prios); i++ {
		for j := i; j > 0 && prios[j] > prios[j-1]; j-- {
			prios[j], prios[j-1] = prios[j-1], prios[j]
			buckets[j], buckets[j-1] = buckets[j-1], buckets[j]
		}
	}
	s.prioScratch = prios
	s.classBuckets = buckets

	for k := range prios {
		s.waterFill(buckets[k])
	}
	s.applyRates(set)
}

// applyRates promotes the water-fill results: every flow whose new rate
// differs (bitwise) from its current one is settled at the old rate, then
// re-keyed in the completion heap. Flows whose rate is reproduced exactly
// are untouched: their prediction and heap position stay as they were.
func (s *Sim) applyRates(set []*flow) {
	for _, f := range set {
		if f.nextRate == f.rate {
			continue
		}
		s.settleFlow(f)
		f.rate = f.nextRate
		f.pred = f.predict()
		s.flowQueue.fix(f)
	}
}

// waterFill performs one max-min fair allocation round for a single
// priority class, consuming the resources' residual capacities. Results
// are written to flow.nextRate; applyRates decides what actually changed.
//
// Per round, the binding-share search and the scratch clearing run over
// the distinct resources the round's unfixed flows touch — a handful on
// a server — instead of re-walking every flow-hop. The set of
// residual/demand quotients examined is unchanged and a float minimum is
// order-independent, so the allocation stays bitwise-identical to the
// per-hop formulation; only the freeze pass, whose flow order decides
// the residual subtraction order, still iterates flows.
func (s *Sim) waterFill(class []*flow) {
	fixed := s.fixedScratch[:0]
	for range class {
		fixed = append(fixed, false)
	}
	s.fixedScratch = fixed
	unfixed := len(class)

	for unfixed > 0 {
		// Demand per resource: sum of path weights of unfixed flows. A
		// resource's first contribution this round registers it in the
		// distinct-resource list (demand is zero between rounds).
		res := s.resScratch[:0]
		for i, f := range class {
			if fixed[i] {
				continue
			}
			for _, pe := range f.path {
				if pe.Res.demand == 0 {
					res = append(res, pe.Res)
				}
				pe.Res.demand += pe.Weight
			}
		}
		s.resScratch = res

		// The binding share is the smallest residual/demand over resources
		// that carry at least one unfixed flow.
		minShare := -1.0
		for _, r := range res {
			share := r.residual / r.demand
			if minShare < 0 || share < minShare {
				minShare = share
			}
		}

		if minShare < 0 {
			// Remaining flows have empty paths: unconstrained. No resource
			// accumulated demand, so there is no scratch to clear.
			for i := range class {
				if !fixed[i] {
					class[i].nextRate = infiniteRate
					fixed[i] = true
					unfixed--
				}
			}
			return
		}

		// Mark binding resources before any subtraction mutates residuals.
		for _, r := range res {
			if r.residual/r.demand <= minShare*(1+1e-12) {
				r.binding = true
			}
		}

		// Freeze every unfixed flow that crosses a binding resource.
		progress := false
		for i, f := range class {
			if fixed[i] {
				continue
			}
			binding := false
			for _, pe := range f.path {
				if pe.Res.binding {
					binding = true
					break
				}
			}
			if !binding {
				continue
			}
			f.nextRate = minShare
			fixed[i] = true
			unfixed--
			progress = true
			for _, pe := range f.path {
				pe.Res.residual -= minShare * pe.Weight
				if pe.Res.residual < 0 {
					pe.Res.residual = 0
				}
			}
		}
		for _, r := range res {
			r.demand = 0
			r.binding = false
		}
		if !progress {
			// Defensive: cannot happen with positive weights, but never
			// spin forever on pathological float input.
			for i := range class {
				if !fixed[i] {
					class[i].nextRate = minShare
					fixed[i] = true
					unfixed--
				}
			}
		}
	}
}
