package plansvc

import (
	"context"
	"fmt"

	"mobius/internal/core"
	"mobius/internal/elastic"
	"mobius/internal/fault"
)

// PrewarmReport summarizes one speculative pre-planning pass.
type PrewarmReport struct {
	// Full is the key of the intact-topology plan.
	Full Key
	// Survivors counts distinct surviving topologies planned (after
	// key deduplication), across GPU-loss and link-loss scenarios.
	Survivors int
	// GPULosses and LinkLosses count the loss scenarios enumerated:
	// every single GPU, and every PCIe/NVLink/root-complex bandwidth
	// resource whose death strands at least its own GPU. GPUPairLosses
	// counts the depth-2 scenarios — every unordered pair of GPU losses
	// — enumerated by PrewarmDepth(..., 2).
	GPULosses     int
	LinkLosses    int
	GPUPairLosses int
	// Deduped counts loss scenarios whose surviving machine keyed to an
	// already-planned entry (symmetric losses collapse, and a gpuN.link
	// loss strands the same machine as losing gpuN outright).
	Deduped int
	// Unsurvivable counts losses that leave no usable machine.
	Unsurvivable int
}

func (r *PrewarmReport) String() string {
	s := fmt.Sprintf("prewarm: full plan + %d survivor plan(s) over %d GPU-loss and %d link-loss scenarios",
		r.Survivors, r.GPULosses, r.LinkLosses)
	if r.GPUPairLosses > 0 {
		s += fmt.Sprintf(" and %d GPU-pair losses", r.GPUPairLosses)
	}
	return s + fmt.Sprintf(" (%d deduplicated, %d unsurvivable)", r.Deduped, r.Unsurvivable)
}

// Prewarm speculatively plans the request and every topology that
// survives the loss of a single GPU or of a single interconnect
// resource (a GPU's PCIe or NVLink port, a whole root complex), so a
// later elastic recovery's re-plan is a cache lookup instead of a MIP
// solve whichever way the hardware fails. Survivor scenarios are
// deduplicated by content key — on a symmetric machine, losing any of
// the four GPUs leaves the same surviving topology, and losing gpu2's
// PCIe port strands the same machine as losing gpu2 — so the distinct
// plans are far fewer than the scenarios. Survivor plans keep the full
// request's microbatch count, matching elastic recovery semantics (the
// global batch size is preserved across a recovery). Each survivor
// is solved cold, exactly as a later request for it would be.
func (s *Service) Prewarm(ctx context.Context, opts core.Options) (*PrewarmReport, error) {
	return s.PrewarmDepth(ctx, opts, 1)
}

// PrewarmDepth is Prewarm with a fault-depth knob: depth 1 covers every
// single GPU or interconnect loss; depth 2 additionally plans the
// survivor of every unordered pair of GPU losses, so even a double
// fault recovers with a cache lookup. Pair scenarios deduplicate
// aggressively by canonical key — on a symmetric machine most pairs
// strand the same surviving shape — so the marginal solve count stays
// far below the O(n²) scenario count.
func (s *Service) PrewarmDepth(ctx context.Context, opts core.Options, depth int) (*PrewarmReport, error) {
	req, err := NewRequest(opts)
	if err != nil {
		return nil, err
	}
	rep := &PrewarmReport{Full: req.Key}
	if _, err := s.plan(ctx, req); err != nil {
		return nil, err
	}
	seen := map[Key]bool{req.Key: true}
	topo := req.Opts.Topology

	for g := 0; g < topo.NumGPUs(); g++ {
		rep.GPULosses++
		spec := &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: g}}}
		if err := s.prewarmSurvivor(ctx, req, spec, rep, seen, fmt.Sprintf("lost gpu %d", g)); err != nil {
			return rep, err
		}
	}

	var links []string
	for g := 0; g < topo.NumGPUs(); g++ {
		links = append(links, fmt.Sprintf("gpu%d.link", g))
		if topo.NVLinkBW > 0 {
			links = append(links, fmt.Sprintf("gpu%d.nvlink", g))
		}
	}
	for rc := range topo.RootComplexBW {
		links = append(links, fmt.Sprintf("rc%d", rc))
	}
	for _, link := range links {
		rep.LinkLosses++
		spec := &fault.Spec{LinkFails: []fault.LinkFailFault{{Link: link}}}
		if err := s.prewarmSurvivor(ctx, req, spec, rep, seen, fmt.Sprintf("lost link %s", link)); err != nil {
			return rep, err
		}
	}

	if depth >= 2 {
		n := topo.NumGPUs()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				rep.GPUPairLosses++
				spec := &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: i}, {GPU: j}}}
				if err := s.prewarmSurvivor(ctx, req, spec, rep, seen, fmt.Sprintf("lost gpus %d and %d", i, j)); err != nil {
					return rep, err
				}
			}
		}
	}
	return rep, nil
}

// prewarmSurvivor derives the surviving topology of one loss scenario
// and plans it unless an identically-keyed survivor was already planned.
func (s *Service) prewarmSurvivor(ctx context.Context, req *Request, spec *fault.Spec, rep *PrewarmReport, seen map[Key]bool, label string) error {
	surv, _, err := elastic.SurvivingTopology(req.Opts.Topology, spec)
	if err != nil {
		rep.Unsurvivable++
		return nil
	}
	sopts := req.Opts
	sopts.Topology = surv
	sreq, err := NewRequest(sopts)
	if err != nil {
		return fmt.Errorf("plansvc: prewarm survivor (%s): %w", label, err)
	}
	if seen[sreq.Key] {
		rep.Deduped++
		return nil
	}
	seen[sreq.Key] = true
	if _, err := s.plan(ctx, sreq); err != nil {
		return fmt.Errorf("plansvc: prewarm survivor (%s): %w", label, err)
	}
	rep.Survivors++
	s.count(func(m *Metrics) { m.PrewarmPlans++ })
	return nil
}
