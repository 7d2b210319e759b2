package trace_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/trace"
)

// The oracles below are the aggregates as they were before the step path
// dropped its reflective sorts: NewCDF sorting with sort.Slice, and
// NonOverlappedCommFraction scanning every record once per GPU with
// sort.Slice-normalized intervals. The production code must match them
// bit for bit. Sorts are not stable, so the order of equal-bandwidth
// flows decides how each cumulative weight rounds: matching bits means
// matching tie order too.

func oracleCDF(samples []trace.Sample) (values, cumul []float64, totalW float64) {
	kept := samples[:0:0]
	for _, s := range samples {
		if s.Weight > 0 {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Value < kept[j].Value })
	for _, s := range kept {
		totalW += s.Weight
		values = append(values, s.Value)
		cumul = append(cumul, totalW)
	}
	return values, cumul, totalW
}

type span struct{ a, b float64 }

func oracleNormalize(iv []span) []span {
	if len(iv) == 0 {
		return nil
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.a <= last.b {
			if x.b > last.b {
				last.b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func oracleSubtract(a, b []span) float64 {
	a = oracleNormalize(a)
	b = oracleNormalize(b)
	var total float64
	bi := 0
	for _, x := range a {
		lo := x.a
		for bi < len(b) && b[bi].b <= lo {
			bi++
		}
		bj := bi
		for lo < x.b {
			if bj >= len(b) || b[bj].a >= x.b {
				total += x.b - lo
				break
			}
			if b[bj].a > lo {
				total += b[bj].a - lo
			}
			if b[bj].b >= x.b {
				break
			}
			lo = b[bj].b
			bj++
		}
	}
	return total
}

func oracleNonOverlapFraction(r *trace.Recorder, numGPUs int, stepTime float64) float64 {
	if stepTime <= 0 || numGPUs <= 0 {
		return 0
	}
	var total float64
	for g := 0; g < numGPUs; g++ {
		var comm, comp []span
		for _, f := range r.Flows {
			if f.Tag.GPU == g || f.Tag.PeerGPU == g {
				comm = append(comm, span{f.Start, f.End})
			}
		}
		for _, c := range r.Computes {
			if c.Tag.GPU == g {
				comp = append(comp, span{c.Start, c.End})
			}
		}
		total += oracleSubtract(comm, comp)
	}
	return total / (float64(numGPUs) * stepTime)
}

func samplesOf(r *trace.Recorder, match func(trace.Tag) bool) []trace.Sample {
	var out []trace.Sample
	for _, f := range r.Flows {
		if match == nil || match(f.Tag) {
			out = append(out, trace.Sample{Value: f.Bandwidth(), Weight: f.Bytes})
		}
	}
	return out
}

// checkCDF requires c to hold the oracle's values and cumulative weights
// bit for bit, and returns the number of equal-value pairs it sorted.
func checkCDF(t *testing.T, label string, c trace.CDF, samples []trace.Sample) int {
	t.Helper()
	values, cumul, totalW := trace.CDFBits(c)
	wv, wc, wt := oracleCDF(samples)
	if len(values) != len(wv) || len(cumul) != len(wc) {
		t.Fatalf("%s: %d values, oracle %d", label, len(values), len(wv))
	}
	if math.Float64bits(totalW) != math.Float64bits(wt) {
		t.Fatalf("%s: total weight %x, oracle %x", label, math.Float64bits(totalW), math.Float64bits(wt))
	}
	ties := 0
	for i := range wv {
		if math.Float64bits(values[i]) != math.Float64bits(wv[i]) ||
			math.Float64bits(cumul[i]) != math.Float64bits(wc[i]) {
			t.Fatalf("%s: point %d is (%x, %x), oracle (%x, %x)", label, i,
				math.Float64bits(values[i]), math.Float64bits(cumul[i]),
				math.Float64bits(wv[i]), math.Float64bits(wc[i]))
		}
		for j := i + 1; j < len(wv) && wv[j] == wv[i]; j++ {
			ties++
		}
	}
	return ties
}

func checkFraction(t *testing.T, label string, got float64, r *trace.Recorder, numGPUs int, stepTime float64) {
	t.Helper()
	want := oracleNonOverlapFraction(r, numGPUs, stepTime)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: non-overlapped fraction %x (%g), oracle %x (%g)", label,
			math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// TestStepAggregatesMatchOracle holds the report aggregates of every
// Table 3 model on Topo 2+2, 1+3 and 4+4, for DeepSpeed-hetero and for
// Mobius on its greedy plan, to the oracles bit for bit.
func TestStepAggregatesMatchOracle(t *testing.T) {
	hostLink := func(tag trace.Tag) bool { return tag.GPU >= 0 && tag.PeerGPU < 0 }
	ran, ties := 0, 0
	for _, m := range model.Table3() {
		for _, groups := range [][]int{{2, 2}, {1, 3}, {4, 4}} {
			for _, sys := range []core.System{core.SystemDSHetero, core.SystemMobius} {
				topo := hw.Commodity(hw.RTX3090Ti, groups...)
				label := fmt.Sprintf("%s %s on %s", sys, m.Name, topo.Name)
				opts := core.Options{Model: m, Topology: topo}
				if sys == core.SystemMobius {
					plan, err := core.GreedyPlan(opts, "oracle test")
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					opts.Planner = core.PlannerFunc(func(context.Context, core.Options) (*core.Plan, error) { return plan, nil })
				}
				rep, err := core.Run(sys, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if rep.OOM {
					t.Logf("%s: OOM, no aggregates", label)
					continue
				}
				rec := rep.Recorder
				ties += checkCDF(t, label+" bandwidth CDF", rep.BandwidthCDF(), samplesOf(rec, nil))
				ties += checkCDF(t, label+" host-link CDF", rep.HostLinkCDF(), samplesOf(rec, hostLink))
				checkFraction(t, label, rep.NonOverlapFraction(), rec, topo.NumGPUs(), rep.StepTime)
				ran++
			}
		}
	}
	t.Logf("%d steps, %d equal-bandwidth pairs", ran, ties)
	if ran < 20 || ties == 0 {
		t.Fatalf("only %d steps and %d tie pairs checked", ran, ties)
	}
}

// TestAggregatesMatchOracleOnTies checks random samples and records
// drawn from a handful of values, so almost every sort compares ties.
func TestAggregatesMatchOracleOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(600)
		samples := make([]trace.Sample, n)
		for i := range samples {
			samples[i] = trace.Sample{Value: float64(r.Intn(6)) * 1.5e9, Weight: r.Float64()*1e8 - 1e7}
		}
		label := fmt.Sprintf("trial %d", trial)
		checkCDF(t, label, trace.NewCDF(samples), samples)

		numGPUs := 1 + r.Intn(6)
		rec := trace.NewRecorder()
		for i := 0; i < n; i++ {
			start := float64(r.Intn(20)) * 0.1
			gpu := r.Intn(numGPUs+2) - 1
			peer := r.Intn(numGPUs+2) - 1
			if r.Intn(4) == 0 {
				peer = gpu
			}
			rec.Flows = append(rec.Flows, trace.FlowRecord{
				Tag:   trace.Tag{GPU: gpu, PeerGPU: peer},
				Start: start, End: start + float64(1+r.Intn(5))*0.1, Bytes: 1e6,
			})
			if r.Intn(2) == 0 {
				rec.Computes = append(rec.Computes, trace.ComputeRecord{
					Tag:   trace.Tag{GPU: r.Intn(numGPUs+1) - 1, PeerGPU: -1},
					Start: start, End: start + float64(r.Intn(4))*0.1,
				})
			}
		}
		step := 3.0
		checkFraction(t, label, rec.NonOverlappedCommFraction(numGPUs, step), rec, numGPUs, step)
		checkCDF(t, label+" recorder", rec.BandwidthCDF(nil), samplesOf(rec, nil))
	}
}
