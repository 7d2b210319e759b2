// Command mobius-advisor ranks hardware options for fine-tuning a model:
// the question the paper's introduction opens with. For each candidate
// server it simulates the best available system (Mobius on commodity
// boxes, DeepSpeed on NVLink fabrics) and ranks by throughput per dollar.
//
// Usage:
//
//	mobius-advisor -model 15B
//	mobius-advisor -model 51B -steps 20000
//	mobius-advisor -model 15B -cache-stats
//	mobius-advisor -serve 127.0.0.1:8080
//
// All planning flows through one hardened plan service
// (internal/plansvc), so the menu's repeated shapes are solved once and
// reused. -serve skips the ranking and instead exposes the service over
// HTTP: POST /v1/plan plans (cached, single-flighted; a request past
// its deadline_ms is a 504) and GET /v1/metrics reports the counters.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"mobius/internal/advisor"
	"mobius/internal/model"
	"mobius/internal/plansvc"
)

func main() {
	modelName := flag.String("model", "15B", "model: 3B, 8B, 15B, 51B")
	steps := flag.Int("steps", 20000, "fine-tuning job length for the cost projection")
	cacheStats := flag.Bool("cache-stats", false, "print plan service counters after advising")
	serve := flag.String("serve", "", "run as a planning service on this address instead of advising (e.g. 127.0.0.1:8080)")
	flag.Parse()

	svc := plansvc.New(plansvc.Config{})

	if *serve != "" {
		fmt.Printf("plan service listening on %s (POST /v1/plan, GET /v1/metrics)\n", *serve)
		if err := http.ListenAndServe(*serve, svc.Handler()); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		return
	}

	m, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *modelName)
		os.Exit(2)
	}

	fmt.Printf("hardware advisor for %s (job: %d steps)\n\n", m, *steps)
	recs, err := advisor.AdviseWith(m, advisor.DefaultOptions(), svc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	for i, r := range recs {
		fmt.Printf("%d. %s\n", i+1, r)
		if !r.OOM {
			fmt.Printf("     job: %.1f h, $%.0f total\n",
				r.StepTime*float64(*steps)/3600, r.PricePerStep*float64(*steps))
		}
	}
	if f := advisor.Fastest(recs); f != nil {
		fmt.Printf("\nfastest: %s (%s)\ncheapest per sample: %s (%s)\n",
			f.Label(), f.System, recs[0].Label(), recs[0].System)
	}
	if *cacheStats {
		ms := svc.Metrics()
		fmt.Printf("\nplansvc: %d requests, %d hits, %d solves, %d cached plans\n",
			ms.Requests, ms.Hits, ms.Solves, ms.CacheEntries)
	}
}
