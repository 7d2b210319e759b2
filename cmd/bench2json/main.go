// Command bench2json converts `go test -bench` output on stdin into a
// stable JSON document. `make bench-json` pipes the scheduler and
// planning benchmarks through it to regenerate BENCH_sim.json, so perf
// results live in the repo in a diffable, machine-readable form.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Speedup is a derived ratio between two sub-benchmarks of the same
// family: how much faster Mode ran than the family's incremental
// (serial event-loop) baseline. Emitting these alongside the raw lines
// keeps the headline claims (e.g. parallel vs serial) directly
// readable from the JSON instead of needing a calculator.
type Speedup struct {
	Name     string  `json:"name"`     // family, i.e. benchmark name up to the last '/'
	Baseline string  `json:"baseline"` // sub-benchmark used as the denominator
	Mode     string  `json:"mode"`     // sub-benchmark being compared
	Ratio    float64 `json:"ratio"`    // baseline ns/op divided by mode ns/op
}

// ScalePoint is one size sample of a scaling series: the parsed
// parameter value and the per-op costs measured at it.
type ScalePoint struct {
	N           int64   `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Scaling is a derived how-does-it-grow series: all sub-benchmarks of
// one family and mode that differ only in a size parameter
// (`BenchmarkSimContention/flows=64/steady` and its 256/1024 siblings),
// with points sorted by size. Reading whether a cost stays linear in
// flow count then takes a glance at the JSON, not a calculator.
type Scaling struct {
	Name   string       `json:"name"`  // family + mode, e.g. "BenchmarkSimContention/steady"
	Param  string       `json:"param"` // size-parameter name, e.g. "flows"
	Points []ScalePoint `json:"points"`
}

// Document is the emitted JSON shape.
type Document struct {
	Goos       string    `json:"goos,omitempty"`
	Goarch     string    `json:"goarch,omitempty"`
	CPU        string    `json:"cpu,omitempty"`
	Benchmarks []Result  `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups,omitempty"`
	Scaling    []Scaling `json:"scaling,omitempty"`
}

// speedupBaseline is the sub-benchmark name every family is compared
// against. Families without such a sibling get no speedup entries.
const speedupBaseline = "incremental"

// deriveSpeedups groups sub-benchmarks by family (the name up to the
// last '/') and, for families that include the incremental baseline,
// emits one ratio per sibling mode, preserving input order.
func deriveSpeedups(benchmarks []Result) []Speedup {
	baselines := make(map[string]float64)
	for _, b := range benchmarks {
		i := strings.LastIndex(b.Name, "/")
		if i < 0 {
			continue
		}
		if b.Name[i+1:] == speedupBaseline && b.NsPerOp > 0 {
			baselines[b.Name[:i]] = b.NsPerOp
		}
	}
	var out []Speedup
	for _, b := range benchmarks {
		i := strings.LastIndex(b.Name, "/")
		if i < 0 {
			continue
		}
		family, mode := b.Name[:i], b.Name[i+1:]
		base, ok := baselines[family]
		if !ok || mode == speedupBaseline || b.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{
			Name:     family,
			Baseline: speedupBaseline,
			Mode:     mode,
			Ratio:    math.Round(base/b.NsPerOp*1000) / 1000,
		})
	}
	return out
}

// scaleName matches a three-part benchmark name whose middle component
// is a size parameter: root/param=N/mode.
var scaleName = regexp.MustCompile(`^(Benchmark[^/]+)/([A-Za-z]+)=(\d+)/([^/]+)$`)

// deriveScaling groups size-parameterized sub-benchmarks into series —
// one per (root, param, mode) triple with at least two distinct sizes —
// with points sorted ascending by size. Series order follows first
// appearance in the input; a duplicated size keeps the first sample.
func deriveScaling(benchmarks []Result) []Scaling {
	type key struct{ root, param, mode string }
	idx := make(map[key]int)
	var out []Scaling
	for _, b := range benchmarks {
		m := scaleName.FindStringSubmatch(b.Name)
		if m == nil || b.NsPerOp <= 0 {
			continue
		}
		n, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		k := key{m[1], m[2], m[4]}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Scaling{Name: k.root + "/" + k.mode, Param: k.param})
		}
		dup := false
		for _, p := range out[i].Points {
			if p.N == n {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out[i].Points = append(out[i].Points, ScalePoint{
			N: n, NsPerOp: b.NsPerOp, BytesPerOp: b.BytesPerOp, AllocsPerOp: b.AllocsPerOp,
		})
	}
	kept := out[:0]
	for _, s := range out {
		if len(s.Points) < 2 {
			continue
		}
		sort.Slice(s.Points, func(a, b int) bool { return s.Points[a].N < s.Points[b].N })
		kept = append(kept, s)
	}
	return kept
}

// benchLine matches e.g.
//
//	BenchmarkSimContention/flows=256/incremental-8  472  2541625 ns/op  701360 B/op  7603 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(r io.Reader) (Document, error) {
	var doc Document
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		res := Result{Name: m[1], Package: pkg, Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			res.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	doc.Speedups = deriveSpeedups(doc.Benchmarks)
	doc.Scaling = deriveScaling(doc.Benchmarks)
	return doc, sc.Err()
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}
