// Command mobius-plan prints the Mobius execution plan — profile
// summary, MIP partition and cross mapping — for a model on a topology.
//
// Usage:
//
//	mobius-plan -model 15B -topo 2+2
//	mobius-plan -model 51B -topo 4+4 -algo min-stage -mapping sequential
//	mobius-plan -model 15B -topo 2+2 -cache-stats
//	mobius-plan -model 15B -topo 2+2 -cache-dir /var/lib/mobius/plans
//	mobius-plan -model 8B -topo 4+4 -deadline 1s
//
// Planning goes through the hardened plan service (internal/plansvc):
// cached and single-flighted. A -deadline that expires cancels the plan:
// the command exits 2 with an error naming the deadline and prints no
// plan. -cache-dir persists the cache
// across invocations (crash-safe, checksummed records; damaged records
// quarantine and the plan re-solves): a second run on the same
// directory serves from disk without a solve.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/planstore"
	"mobius/internal/plansvc"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func parseModel(name string) model.Config {
	m, ok := model.ByName(name)
	if !ok {
		fail("unknown model %q (want 3B, 8B, 15B or 51B)", name)
	}
	return m
}

func parseTopo(spec string) *hw.Topology {
	topo, err := hw.ParseSpec(spec)
	if err != nil {
		fail("%v", err)
	}
	return topo
}

// planArgs are the parsed flags check validates before planning.
type planArgs struct {
	mbs      int
	deadline time.Duration
	scheme   string
	topo     *hw.Topology
}

// check refuses flag values the planner cannot honour, naming the flag,
// and a cross mapping over more than plansvc.MaxPlanGPUs GPUs, whose
// search would not return.
func (a planArgs) check() error {
	switch {
	case a.mbs < 0:
		return fmt.Errorf("-mbs %d: want 0 (Table 3 default) or a positive microbatch size", a.mbs)
	case a.deadline < 0:
		return fmt.Errorf("-deadline %v: want 0 (none) or a positive duration", a.deadline)
	case a.scheme == mapping.SchemeCross || a.scheme == "": // "" plans cross
		return plansvc.CheckPlanGPUs(a.topo)
	}
	return nil
}

func main() {
	modelName := flag.String("model", "15B", "model: 3B, 8B, 15B, 51B")
	topoSpec := flag.String("topo", "2+2", "GPUs per root complex (e.g. 4, 2+2, 1+3) or 'dc'")
	algo := flag.String("algo", partition.AlgoMIP, "partition algorithm: mip, max-stage, min-stage")
	scheme := flag.String("mapping", mapping.SchemeCross, "mapping scheme: cross, sequential")
	mbs := flag.Int("mbs", 0, "microbatch size override (0 = Table 3 default)")
	asJSON := flag.Bool("json", false, "emit the plan as JSON instead of text")
	deadline := flag.Duration("deadline", 0, "planning deadline; on expiry planning fails with an error (0 = none)")
	cacheStats := flag.Bool("cache-stats", false, "print plan service counters after planning")
	cacheDir := flag.String("cache-dir", "", "persist the plan cache in this directory (warm-started on launch)")
	flag.Parse()

	m := parseModel(*modelName)
	topo := parseTopo(*topoSpec)
	if err := (planArgs{mbs: *mbs, deadline: *deadline, scheme: *scheme, topo: topo}).check(); err != nil {
		fail("%v", err)
	}
	if *mbs > 0 {
		m = m.WithMicrobatch(*mbs)
	}

	opts := core.Options{
		Model:         m,
		Topology:      topo,
		PartitionAlgo: *algo,
		MappingScheme: *scheme,
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var svcCfg plansvc.Config
	var store *planstore.Store
	if *cacheDir != "" {
		var err error
		store, err = planstore.Open(planstore.Config{Dir: *cacheDir})
		if err != nil {
			fail("cache dir: %v", err)
		}
		defer store.Close() // drain the write-behind queue before exit
		svcCfg.Store = store
	}
	svc := plansvc.New(svcCfg)
	plan, err := svc.PlanMobius(ctx, opts)
	if err != nil {
		fail("planning failed: %v", err)
	}
	if err := plan.Validate(topo); err != nil {
		fail("plan failed validation: %v", err)
	}

	// Side reports go to stderr so -json keeps stdout machine-readable.
	if *cacheStats {
		if store != nil {
			store.Flush() // settle the write-behind queue so the counters are final
		}
		ms := svc.Metrics()
		fmt.Fprintf(os.Stderr, "plansvc:   %d requests, %d hits, %d solves, %d cached plans\n",
			ms.Requests, ms.Hits, ms.Solves, ms.CacheEntries)
		if sm := svc.StoreMetrics(); sm != nil {
			fmt.Fprintf(os.Stderr, "planstore: %d adopted at start (%d hits served warm), %d persisted, %d deleted, %d queued",
				ms.WarmStartEntries, ms.WarmHits, sm.Persisted, sm.Deletes, sm.QueueDepth)
			if sm.QuarantinedRecords > 0 {
				fmt.Fprintf(os.Stderr, ", %d quarantined (%d stale, %d invalid)",
					sm.QuarantinedRecords, sm.StaleRecords, sm.InvalidRecords)
			}
			if sm.WriteDrops > 0 || sm.IOErrors > 0 {
				fmt.Fprintf(os.Stderr, ", %d dropped writes, %d I/O errors", sm.WriteDrops, sm.IOErrors)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	if *asJSON {
		data, err := core.MarshalPlan(plan, opts)
		if err != nil {
			fail("serialize: %v", err)
		}
		fmt.Println(string(data))
		return
	}

	fmt.Printf("model:     %s\n", m)
	fmt.Printf("topology:  %s\n", topo)
	fmt.Printf("profile:   %d layers, %d similarity groups, cost %.2fs\n",
		plan.Profile.NumLayers(), plan.Profile.GroupsProfiled, plan.Profile.Cost)
	if st := plan.MIPStats; st != nil {
		// A plan loaded from the store carries no resolutions.
		tried := make([]string, len(st.TriedStageCounts))
		for i, S := range st.TriedStageCounts {
			tried[i] = fmt.Sprintf("S=%d", S)
			if i < len(st.Resolutions) {
				tried[i] += " " + st.Resolutions[i].String()
			}
		}
		fmt.Printf("MIP:       tried %s; %d nodes, %d LPs (%d numerical), %d pivots, largest LP %dx%d, %v solve time\n",
			strings.Join(tried, ", "), st.Nodes, st.LPSolves, st.LPNumerical, st.LPPivots, st.LPRows, st.LPCols, st.SolveTime.Round(1e6))
	}
	fmt.Printf("partition: %d stages (%s)\n", plan.Partition.NumStages(), plan.Partition.Algorithm)
	for j, s := range plan.Partition.Stages {
		fmt.Printf("  stage %2d -> gpu %d  layers [%2d..%2d]  params %6.2f GB  fwd %6.3fs  bwd %6.3fs\n",
			j, plan.Mapping.GPUOf(j), s.First, s.Last, s.ParamBytes/1e9, s.FwdTime, s.BwdTime)
	}
	fmt.Printf("mapping:   %s\n", plan.Mapping)
	fmt.Printf("predicted: %.3f s/step\n", plan.PredictedStep)
}
