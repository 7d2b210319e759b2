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
	// Metrics holds every other unit on the line: MB/s from b.SetBytes
	// and the custom units of b.ReportMetric.
	Metrics map[string]float64 `json:"metrics,omitempty"`
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
// (`BenchmarkSimContention/flows=64/run` and its 256/1024 siblings),
// with points sorted by size. Reading whether a cost stays linear in
// flow count then takes a glance at the JSON, not a calculator.
type Scaling struct {
	Name   string       `json:"name"`  // family + mode, e.g. "BenchmarkSimContention/run"
	Param  string       `json:"param"` // size-parameter name, e.g. "flows"
	Points []ScalePoint `json:"points"`
}

// Document is the emitted JSON shape.
type Document struct {
	Goos       string    `json:"goos,omitempty"`
	Goarch     string    `json:"goarch,omitempty"`
	CPU        string    `json:"cpu,omitempty"`
	Benchmarks []Result  `json:"benchmarks"`
	Scaling    []Scaling `json:"scaling,omitempty"`
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

// benchLine matches a result line's name, with any GOMAXPROCS suffix
// cut, its iteration count and the rest: value-unit pairs, e.g.
//
//	BenchmarkSimContention/flows=256/run-8  472  2541625 ns/op  701360 B/op  7603 allocs/op
//	BenchmarkLPRoot-2  1  1061234567 ns/op  2051 cols  1788 pivots  866.0 rows  4.000 status  5120 B/op  3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseResult parses one result line, or reports false for any other
// line, including one without an ns/op pair.
func parseResult(line, pkg string) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	fields := strings.Fields(m[3])
	if len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, _ := strconv.ParseInt(m[2], 10, 64)
	res := Result{Name: m[1], Package: pkg, Iterations: iters}
	sawNs := false
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp, sawNs = v, true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, sawNs
}

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
		if res, ok := parseResult(line, pkg); ok {
			doc.Benchmarks = append(doc.Benchmarks, res)
		}
	}
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
