package sim

// This file implements the locality layer of the incremental scheduler:
// active flows are grouped into connected components via a union-find
// over the resources their paths touch, and rate recomputation is
// restricted to components actually perturbed by an event (flow admit or
// finish, capacity change). Two flows that never share a resource —
// transfers on isolated NVLinks, traffic under different root complexes —
// never pay for each other's events.
//
// Correctness does not depend on the decomposition being tight: the
// water-filling computation is a pure function of a component's flows and
// capacities, so recomputing an unperturbed component reproduces its
// rates bit for bit and is merely wasted work. Union-find can therefore
// over-merge freely (it cannot split); a per-component rebuild re-derives
// a component's partition from its live flows once enough of its flows
// have finished that stale merges may be holding unrelated flows
// together. The test-only global oracle (flow.go) exploits the same
// purity: it recomputes every live component on every event and must
// produce bitwise-identical schedules.
//
// The state lives on Sim. Resources carry the union-find links; a
// resource whose generation is not the run's (ufGen) reads as a fresh
// singleton.

// component is a connected set of active flows: the union of their paths
// is disjoint from every other component's. flows is unordered (O(1)
// admit and swap-remove) but deterministically maintained; since both
// scheduler modes read the same lists, the list order is by construction
// the canonical iteration order for water-filling in either mode.
type component struct {
	flows []*flow
	// resources caches the distinct resources the member flows' paths
	// touch — a superset, kept current at admit/merge/recycle time — so
	// the water-fill resets per-resource scratch by walking this short
	// list instead of every flow-hop. Extra entries (resources whose
	// flows all finished) are harmless: resetting their scratch is
	// invisible to an allocation that never visits them.
	resources []*Resource
	// dirty marks the component perturbed since the last recompute; it
	// also guards duplicate entries in Sim.dirtyComps.
	dirty bool
	// dead marks a component absorbed by a union-find merge or drained of
	// its last flow; the dirty drain recycles it.
	dead bool
	// visit de-duplicates components during the oracle's global sweep
	// (compared against Sim.compVisit).
	visit uint64
	// finished counts flow completions charged to this component since it
	// was created (merges carry the absorbed component's count along); it
	// triggers the per-component rebuild that recovers splits.
	finished int
}

// findRoot returns the union-find root of r, lazily (re)initializing r as
// a singleton when it has not been touched in the current generation.
// Per-component rebuilds invalidate a subset of the structure by zeroing
// those resources' generations, which can leave a current-generation
// resource (one whose flows all finished) pointing at an invalidated
// parent; the walk cuts such stale edges instead of following them. Path
// halving keeps chains short.
func (s *Sim) findRoot(r *Resource) *Resource {
	if r.ufGen != ufGen {
		r.ufGen = ufGen
		r.ufParent = r
		r.ufRank = 0
		r.comp = nil
	}
	for r.ufParent != r {
		p := r.ufParent
		if p.ufGen != ufGen {
			// The parent was invalidated out from under r: r's own flows
			// are gone (rebuild re-admits every live flow's resources), so
			// restart it as a bare singleton.
			r.ufParent = r
			r.ufRank = 0
			r.comp = nil
			return r
		}
		if gp := p.ufParent; gp.ufGen == ufGen {
			r.ufParent = gp
		}
		r = r.ufParent
	}
	return r
}

// unionRoots merges two union-find roots (and their components) and
// returns the surviving root.
func (s *Sim) unionRoots(a, b *Resource) *Resource {
	if a == b {
		return a
	}
	if a.ufRank < b.ufRank {
		a, b = b, a
	} else if a.ufRank == b.ufRank {
		a.ufRank++
	}
	b.ufParent = a
	ca, cb := a.comp, b.comp
	switch {
	case cb == nil:
		// nothing to merge
	case ca == nil:
		a.comp = cb
	default:
		s.mergeComponents(ca, cb)
	}
	b.comp = nil
	return a
}

// mergeComponents folds src into dst: src's members are appended to
// dst's list, dirtiness and the finished-count debt are inherited, and
// src is retired through the dirty drain so its buffer returns to the
// pool.
func (s *Sim) mergeComponents(dst, src *component) {
	for _, f := range src.flows {
		f.compIdx = len(dst.flows)
		dst.flows = append(dst.flows, f)
	}
	for _, r := range src.resources {
		if r.listedComp == src {
			r.listedComp = dst
		}
		dst.resources = append(dst.resources, r)
	}
	src.resources = src.resources[:0]
	dst.finished += src.finished

	if src.dirty && !dst.dirty {
		s.markDirty(dst)
	}
	src.flows = src.flows[:0]
	src.finished = 0
	src.dead = true
	if !src.dirty {
		// Route the corpse through dirtyComps so the next drain recycles
		// it; dead components are skipped before any rate work.
		s.markDirty(src)
	}
}

// markDirty queues c for the next rate recompute (once).
func (s *Sim) markDirty(c *component) {
	s.ratesDirty = true
	if !c.dirty {
		c.dirty = true
		s.dirtyComps = append(s.dirtyComps, c)
	}
}

// newComponent takes a component from the pool (or allocates one).
func (s *Sim) newComponent() *component {
	if n := len(s.compPool); n > 0 {
		c := s.compPool[n-1]
		s.compPool[n-1] = nil
		s.compPool = s.compPool[:n-1]
		return c
	}
	return &component{}
}

func (s *Sim) recycleComponent(c *component) {
	c.flows = c.flows[:0]
	// Unlist only resources still pointing here: one that has since been
	// re-admitted into a younger component stays on that list.
	for i, r := range c.resources {
		if r.listedComp == c {
			r.listedComp = nil
		}
		c.resources[i] = nil
	}
	c.resources = c.resources[:0]
	c.dirty = false
	c.dead = false
	c.finished = 0
	s.compPool = append(s.compPool, c)
}

// componentAdmit links a newly admitted flow into the union-find: its
// path's resources are unioned into one component, the flow joins that
// component's member list, and the component is marked dirty. Empty-path
// flows are unconstrained and never join a component.
func (s *Sim) componentAdmit(f *flow) {
	path := f.path
	if len(path) == 0 {
		return
	}
	root := s.findRoot(path[0].Res)
	for _, pe := range path[1:] {
		root = s.unionRoots(root, s.findRoot(pe.Res))
	}
	c := root.comp
	if c == nil {
		c = s.newComponent()
		root.comp = c
	}
	for _, pe := range path {
		r := pe.Res
		if r.listedComp != c {
			r.listedComp = c
			c.resources = append(c.resources, r)
		}
	}
	f.compIdx = len(c.flows)
	c.flows = append(c.flows, f)
	s.markDirty(c)
}

// componentFinish removes a completed flow from its component and marks
// the component dirty (the freed bandwidth redistributes to the
// survivors). Finishes are also what can split a component, which
// union-find cannot express, so they feed the component's rebuild
// counter; a component drained of its last flow is retired on the spot.
func (s *Sim) componentFinish(f *flow) {
	if len(f.path) == 0 {
		return
	}
	root := s.findRoot(f.path[0].Res)
	c := root.comp
	last := len(c.flows) - 1
	moved := c.flows[last]
	c.flows[f.compIdx] = moved
	moved.compIdx = f.compIdx
	c.flows[last] = nil
	c.flows = c.flows[:last]
	c.finished++
	s.markDirty(c)
	if len(c.flows) == 0 {
		root.comp = nil
		c.dead = true
	}
}

// rebuildComponent re-derives c's partition from its live flows: the
// component's union-find subtree is invalidated (generation-zeroed) and
// every member flow re-admitted in list order, which recovers any splits
// finishes have produced. Newly formed components enter the dirty queue,
// so the recompute that triggered the rebuild drains them immediately.
func (s *Sim) rebuildComponent(c *component) {
	fs := append(s.rebuildScratch[:0], c.flows...)
	// Detach the component from its union-find root before the
	// invalidation orphans the tree: the root can be a resource whose own
	// flows all finished — still current-generation, not on any live
	// flow's path — and a dangling comp pointer there would resurrect the
	// recycled component on a later capacity event.
	if len(fs) > 0 {
		root := s.findRoot(fs[0].path[0].Res)
		root.comp = nil
	}
	for _, f := range fs {
		for _, pe := range f.path {
			pe.Res.ufGen = 0
		}
	}
	s.recycleComponent(c)
	for _, f := range fs {
		s.componentAdmit(f)
	}
	for i := range fs {
		fs[i] = nil
	}
	s.rebuildScratch = fs[:0]
}
