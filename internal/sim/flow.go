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
	// listIdx is the flow's position in the unordered Sim.flows list.
	listIdx int
	// compIdx is the flow's position in its component's member list.
	compIdx int
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
//  1. A component's flows are grouped by priority; higher classes are
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
// Water-filling runs component by component in every mode. Components
// share no resources, so filling them separately is exact, and the
// result is independent of which other components happen to be dirty at
// the same instant. The incremental path fills only the components
// marked dirty since the last call; the retained test-only oracle
// (rateOracle) fills every live component on every event. Both must
// produce identical schedules — the differential tests assert exactly
// that.
//
// The computation allocates nothing per event: it reuses the
// scratch slices on Sim and the scratch fields on Resource
// (residual/demand reset per component fill, the per-round binding
// flag) instead of
// building maps per event, and relies on each component's flow list
// providing a deterministic iteration order shared by all scheduler
// modes, so no per-call sort is needed.
func (s *Sim) recomputeRates() {
	if !s.ratesDirty {
		return
	}
	s.ratesDirty = false

	if s.rateOracle {
		// Oracle mode: drain the dirty queue for its side effects only
		// (recycling dead components, recovering splits), then fill every
		// live component, de-duplicated by visit epoch.
		s.resolveDirty(false)
		s.compVisit++
		for _, f := range s.flows {
			if len(f.path) == 0 {
				continue
			}
			c := s.findRoot(f.path[0].Res).comp
			if c == nil || c.visit == s.compVisit {
				continue
			}
			c.visit = s.compVisit
			s.fillComponent(c)
		}
		return
	}

	for _, c := range s.resolveDirty(true) {
		s.fillComponent(c)
	}
}

// resolveDirty drains the dirty-component queue: dead components are
// recycled, components whose finish count outgrew their live size are
// rebuilt (their replacements re-enter the queue and are drained by this
// same call), and — when collect is set — the surviving components are
// returned for filling.
func (s *Sim) resolveDirty(collect bool) []*component {
	work := s.compScratch[:0]
	for i := 0; i < len(s.dirtyComps); i++ {
		c := s.dirtyComps[i]
		c.dirty = false
		if c.dead {
			s.recycleComponent(c)
			continue
		}
		if c.finished > len(c.flows)+16 {
			// Enough finishes that stale merges may be holding unrelated
			// flows together: re-derive this component's partition. The
			// rebuild appends its results to dirtyComps, so the loop picks
			// them up.
			s.rebuildComponent(c)
			continue
		}
		if collect {
			work = append(work, c)
		}
	}
	s.dirtyComps = s.dirtyComps[:0]
	s.compScratch = work
	return work
}

// fillComponent runs the strict-priority water-fill over one component
// and applies the resulting rates.
func (s *Sim) fillComponent(c *component) {
	set := c.flows
	if len(set) == 0 {
		return
	}

	// Reset residual capacity on every resource the component touches,
	// via the component's cached distinct-resource list (component.go) —
	// a handful of entries instead of one visit per flow-hop.
	for _, r := range c.resources {
		r.residual = r.capacity
		r.demand = 0
	}

	// Bucket the set by priority in ONE pass: each flow is appended to
	// its class's reusable scratch slice, preserving the relative order
	// within the component. The distinct class count is tiny, so the
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
// are untouched, which is what makes a conservative (over-large)
// recompute set behaviorally invisible.
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
// the distinct resources the round's unfixed flows touch — a handful per
// component — instead of re-walking every flow-hop. The set of
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
