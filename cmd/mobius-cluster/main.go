// Command mobius-cluster simulates a fleet of Mobius servers serving a
// multi-tenant stream of fine-tuning jobs, and prints the drained fleet
// report: per-class admission / backpressure / shed / completion
// counters, queueing-delay distributions, the Jain fairness index, and
// the dispatch/recovery counters.
//
// Usage:
//
//	mobius-cluster                                # 3-class default workload, 2 servers
//	mobius-cluster -servers 4 -horizon 900
//	mobius-cluster -load 4                        # 4x offered load, budgets fixed
//	mobius-cluster -fail 1@300 -fail 2@450        # server losses (id@seconds)
//	mobius-cluster -restart 0@200                 # server bounce: down, then warm rejoin
//	mobius-cluster -restart 0@200 -restart-cold   # rejoin with a cold plan cache
//	mobius-cluster -cache-dir /tmp/fleet-plans    # per-server persistent plan stores
//	mobius-cluster -no-admission                  # drop the token budgets
//	mobius-cluster -jobs                          # append the per-job audit trail
//
// The default workload is the overload experiment's: gold (SLO 0,
// token-budgeted), silver (SLO 1, budgeted, degrades to the greedy
// floor past its queue patience) and best-effort (SLO 2, unbudgeted,
// deadline-shed), each arriving as a Poisson stream. A dispatch fails
// only into a server that died and is not yet detected (-fail, -restart),
// which is what drives the retry and breaker counters. Every run is
// deterministic in -seed and ends with the conservation check:
// Submitted = Completed + Rejected + Shed + Failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mobius/internal/cluster"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// failList collects repeated -fail server@seconds flags.
type failList []fault.ServerFailFault

func (f *failList) String() string { return fmt.Sprintf("%v", []fault.ServerFailFault(*f)) }

func (f *failList) Set(v string) error {
	var srv int
	var at float64
	if _, err := fmt.Sscanf(v, "%d@%f", &srv, &at); err != nil {
		return fmt.Errorf("want server@seconds (e.g. 1@300), got %q", v)
	}
	*f = append(*f, fault.ServerFailFault{Server: srv, At: at})
	return nil
}

// restartList collects repeated -restart server@seconds flags.
type restartList []fault.ServerRestartFault

func (f *restartList) String() string { return fmt.Sprintf("%v", []fault.ServerRestartFault(*f)) }

func (f *restartList) Set(v string) error {
	var srv int
	var at float64
	if _, err := fmt.Sscanf(v, "%d@%f", &srv, &at); err != nil {
		return fmt.Errorf("want server@seconds (e.g. 0@200), got %q", v)
	}
	*f = append(*f, fault.ServerRestartFault{Server: srv, At: at})
	return nil
}

func main() {
	servers := flag.Int("servers", 2, "number of Mobius servers in the fleet")
	topoSpec := flag.String("topo", "2+2", "per-server topology: GPUs per root complex (e.g. 4, 2+2)")
	horizon := flag.Float64("horizon", 600, "arrival horizon in seconds (the run drains past it)")
	seed := flag.Int64("seed", 42, "workload seed; replays are bitwise identical")
	load := flag.Float64("load", 1, "offered-load multiplier over the default class rates")
	modelName := flag.String("model", "3B", "job model: 3B, 8B, 15B, 51B")
	queueCap := flag.Int("queue-cap", 6, "per-server bounded queue capacity")
	noAdmission := flag.Bool("no-admission", false, "drop the token budgets (admit everything)")
	prewarm := flag.Bool("prewarm", true, "prewarm every server's plan cache before arrivals")
	jobs := flag.Bool("jobs", false, "append the per-job audit trail")
	cacheDir := flag.String("cache-dir", "", "root directory for per-server persistent plan stores (warm restarts reload from disk)")
	restartCold := flag.Bool("restart-cold", false, "restarted servers rejoin with a cold plan cache")
	restartLatency := flag.Float64("restart-latency", 0, "downtime of every -restart bounce in seconds (0 = built-in default)")
	var fails failList
	flag.Var(&fails, "fail", "server loss as server@seconds (repeatable)")
	var restarts restartList
	flag.Var(&restarts, "restart", "server bounce as server@seconds (repeatable); the server rejoins after -restart-latency")
	flag.Parse()

	m, ok := model.ByName(*modelName)
	if !ok {
		fail("unknown model %q", *modelName)
	}
	topo, err := hw.ParseSpec(*topoSpec)
	if err != nil {
		fail("%v", err)
	}

	const (
		baseGold = 0.030
		baseSilv = 0.030
		baseBE   = 0.040
	)
	mk := func(name string, slo int, rate float64) cluster.Class {
		return cluster.Class{
			Name:            name,
			SLO:             slo,
			RatePerS:        rate * *load,
			Model:           m,
			PartitionAlgo:   partition.AlgoBalanced,
			BalancedStages:  4,
			StepsMin:        2,
			StepsMax:        3,
			CheckpointEvery: 2,
		}
	}
	gold := mk("gold", 0, baseGold)
	silver := mk("silver", 1, baseSilv)
	be := mk("best-effort", 2, baseBE)
	if !*noAdmission {
		gold.TokenRatePerS, gold.TokenBurst = baseGold*1.2, 3
		silver.TokenRatePerS, silver.TokenBurst = baseSilv*1.2, 3
	}
	silver.DegradeAfterS = 45
	be.DeadlineS = 40

	cfg := cluster.Config{
		Servers:   *servers,
		Topology:  topo,
		Classes:   []cluster.Class{gold, silver, be},
		HorizonS:  *horizon,
		Seed:      *seed,
		QueueCap:  *queueCap,
		Prewarm:   *prewarm,
		StoreRoot: *cacheDir,
	}
	if len(fails) > 0 || len(restarts) > 0 {
		for i := range restarts {
			restarts[i].Cold = *restartCold
			restarts[i].RestartLatencyS = *restartLatency
		}
		cfg.Faults = &fault.Spec{ServerFails: fails, ServerRestarts: restarts}
	}

	rep, err := cluster.Run(cfg)
	if err != nil {
		fail("%v", err)
	}
	fmt.Print(rep)
	if err := rep.Conservation(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("  conservation: ok; fingerprint %s\n", rep.Fingerprint())

	if *jobs {
		fmt.Println("\nper-job audit trail:")
		for _, j := range rep.Jobs {
			var extra []string
			if j.Degraded {
				extra = append(extra, "degraded")
			}
			if j.Relands > 0 {
				extra = append(extra, fmt.Sprintf("re-landed from step %d", j.ResumeStep))
			}
			suffix := ""
			if len(extra) > 0 {
				suffix = " (" + strings.Join(extra, ", ") + ")"
			}
			fmt.Printf("  job %4d %-12s arrive %7.1fs %d steps -> %-9s server %2d%s\n",
				j.ID, j.Class, j.Arrival, j.Steps, j.Outcome, j.Server, suffix)
		}
	}
}
