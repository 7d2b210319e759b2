package lp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
	"mobius/internal/plansvc"
)

var update = flag.Bool("update", false, "regenerate testdata/plans.golden and testdata/effort.golden")

// TestColdPlanFingerprints pins the plan fingerprint of a serial cold
// plan for every Table 3 model on Topo 2+2, 1+3 and 4+4 to
// testdata/plans.golden, and the search effort that reached it (nodes,
// LP solves, pivots, numerical stops) to testdata/effort.golden. The
// per-MILP time limit is lifted, as the benchmark's golden plans lift
// it, so only the node limit bounds branch and bound and neither file
// depends on the host's speed. A change to the LP kernel that claims to
// keep every pivot must leave both files alone: the effort file catches
// a kernel that reaches the same plans through different pivots. It
// runs under MOBIUS_CHECK_LP (make check-lp): the twelve plans take
// about 6 s on a 2-vCPU host, since the root bound resolves the 15B on
// Topo 4+4 and the three 51B sweeps with no LP.
func TestColdPlanFingerprints(t *testing.T) {
	if os.Getenv("MOBIUS_CHECK_LP") == "" && !*update {
		t.Skip("set MOBIUS_CHECK_LP=1 (make check-lp) to plan every Table 3 shape")
	}
	var plans, effort strings.Builder
	for _, m := range model.Table3() {
		for _, spec := range []string{"2+2", "1+3", "4+4"} {
			topo, err := hw.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			plan, err := core.PlanMobius(core.Options{
				Model:       m,
				Topology:    topo,
				Parallelism: 1,
				MIP:         partition.MIPOptions{DisableCache: true, TimeLimit: 10 * time.Minute},
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name, spec, err)
			}
			fmt.Fprintf(&plans, "%-4s %-4s %s\n", m.Name, spec, plansvc.Fingerprint(plan))
			st := plan.MIPStats
			fmt.Fprintf(&effort, "%-4s %-4s nodes=%d lps=%d pivots=%d numerical=%d\n",
				m.Name, spec, st.Nodes, st.LPSolves, st.LPPivots, st.LPNumerical)
			t.Logf("%s on %s: %v, %d nodes, %d LPs (%d numerical)",
				m.Name, spec, time.Since(start).Round(time.Millisecond), st.Nodes, st.LPSolves, st.LPNumerical)
		}
	}
	for _, g := range []struct {
		name, got string
	}{{"plans.golden", plans.String()}, {"effort.golden", effort.String()}} {
		golden := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (run with -update to generate): %v", err)
		}
		if string(want) != g.got {
			t.Errorf("%s changed:\n--- golden\n%s--- got\n%s", g.name, want, g.got)
		}
	}
}
