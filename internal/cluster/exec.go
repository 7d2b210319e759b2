package cluster

import (
	"context"
	"fmt"
	"sync"

	"mobius/internal/core"
	"mobius/internal/elastic"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/pipeline"
	"mobius/internal/plansvc"
)

// checkpointWrite is the periodic snapshot appended to checkpointed
// steps (DRAM-destination, like the elastic default).
func checkpointWrite(bytes float64) *pipeline.CheckpointWrite {
	return &pipeline.CheckpointWrite{Bytes: bytes}
}

// StepTimes prices one job shape on a server: the plain step and the
// step with the periodic checkpoint write appended.
type StepTimes struct {
	Plain float64
	Ckpt  float64
}

// stepKey addresses one priced combination. Step times are pure
// functions of these inputs, so the cache can be shared across
// servers, runs and goroutines without ever changing a result.
type stepKey struct {
	plan     plansvc.Key
	every    int
	degraded bool
	faults   string
}

// StepCache memoizes step-time and checkpoint-migration pricing. The
// fleet loop calls it synchronously; the real compute behind a miss is
// one or two core.Run simulations per distinct (shape, checkpoint,
// degradation, faults) combination — everything after that is a map
// lookup. Safe for concurrent use (the chaos matrix shares one across
// its -race fan-out).
type StepCache struct {
	mu    sync.Mutex
	steps map[stepKey]StepTimes
	mig   map[migKey]float64
}

// migKey addresses one priced checkpoint migration.
type migKey struct {
	topo   string
	bytes  uint64
	faults string
}

// NewStepCache builds an empty cache.
func NewStepCache() *StepCache {
	return &StepCache{steps: make(map[stepKey]StepTimes), mig: make(map[migKey]float64)}
}

// StepTimes prices opts, whose plan key is key, under the given
// checkpoint interval and degradation state, with every step under the
// fault scenario spec, whose fingerprint is faults (spec.Fingerprint();
// the caller computes both keys once). A non-degraded shape plans
// through svc — warming that server's cache and its affinity signal —
// while a degraded one uses the deterministic greedy floor directly.
func (c *StepCache) StepTimes(svc *plansvc.Service, opts core.Options, key plansvc.Key, every int, degraded bool, spec *fault.Spec, faults string) (StepTimes, error) {
	sk := stepKey{plan: key, every: every, degraded: degraded, faults: faults}
	c.mu.Lock()
	if st, ok := c.steps[sk]; ok {
		c.mu.Unlock()
		return st, nil
	}
	c.mu.Unlock()

	ropts := opts
	ropts.Faults = spec
	if degraded {
		ropts.Planner = core.PlannerFunc(func(ctx context.Context, o core.Options) (*core.Plan, error) {
			return core.GreedyPlan(o, "cluster: queue patience exhausted, degraded to the greedy floor")
		})
	} else {
		ropts.Planner = svc
	}
	st, err := priceStep(ropts, every)
	if err != nil {
		return StepTimes{}, err
	}
	c.mu.Lock()
	c.steps[sk] = st
	c.mu.Unlock()
	return st, nil
}

func priceStep(opts core.Options, every int) (StepTimes, error) {
	rep, err := core.Run(core.SystemMobius, opts)
	if err != nil {
		return StepTimes{}, err
	}
	if rep.OOM {
		return StepTimes{}, fmt.Errorf("cluster: job shape OOMs on %q: %s", opts.Topology.Name, rep.OOMCause)
	}
	st := StepTimes{Plain: rep.StepTime, Ckpt: rep.StepTime}
	if every > 0 {
		copts := opts
		copts.Checkpoint = checkpointWrite(opts.Model.ModelStatesBytes())
		crep, err := core.Run(core.SystemMobius, copts)
		if err != nil {
			return StepTimes{}, err
		}
		if crep.OOM {
			return StepTimes{}, fmt.Errorf("cluster: checkpointed step OOMs on %q: %s", opts.Topology.Name, crep.OOMCause)
		}
		st.Ckpt = crep.StepTime
	}
	return st, nil
}

// Migration prices restoring a job's checkpoint snapshot on the server
// it re-lands on, via the same machinery elastic recovery uses
// (elastic.MigrationSeconds), under the fleet's standing per-server
// fault conditions spec, whose fingerprint is faults.
func (c *StepCache) Migration(topo *hw.Topology, spec *fault.Spec, faults string, bytes float64) (float64, error) {
	mk := migKey{topo: topo.Name, bytes: uint64(bytes), faults: faults}
	c.mu.Lock()
	if m, ok := c.mig[mk]; ok {
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	m, err := elastic.MigrationSeconds(topo, spec, bytes, elastic.DestDRAM)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.mig[mk] = m
	c.mu.Unlock()
	return m, nil
}
