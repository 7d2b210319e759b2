package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: mobius/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimContention/flows=1024/construct-8     	     600	   2000000 ns/op	  900000 B/op	    9000 allocs/op
BenchmarkSimContention/flows=1024/run-8           	     100	  10000000 ns/op	 1000000 B/op	   10000 allocs/op
BenchmarkSimContention/flows=1024/steady-8        	     200	   6000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimContention/flows=1024/parallel=4-8    	     250	   5000000 ns/op	     212 B/op	       6 allocs/op
BenchmarkNoFamily-8                               	    1000	   1000000 ns/op
PASS
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", doc.Goos, doc.Goarch)
	}
	if len(doc.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(doc.Benchmarks))
	}
	run := doc.Benchmarks[1]
	if run.Name != "BenchmarkSimContention/flows=1024/run" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", run.Name)
	}
	if run.NsPerOp != 10000000 || run.AllocsPerOp != 10000 || run.Iterations != 100 {
		t.Errorf("run parsed as %+v", run)
	}
	if pkg := run.Package; pkg != "mobius/internal/sim" {
		t.Errorf("package = %q", pkg)
	}
}

// lpOutput is real `go test -bench` output: BenchmarkLPRoot's custom
// metrics sit between ns/op and B/op, and b.SetBytes adds MB/s.
const lpOutput = `pkg: mobius/internal/partition
BenchmarkLPRoot-2   	       2	 378322233 ns/op	      2051 cols	      1788 pivots	       866.0 rows	         4.000 status	 7176816 B/op	      15 allocs/op
pkg: mobius/internal/lp
BenchmarkAxpyNeg/m=518/kernel-2         	 4962595	       250.4 ns/op	33096.94 MB/s
BenchmarkAxpyNeg
PASS
`

func TestParseKeepsEveryMetric(t *testing.T) {
	doc, err := parse(strings.NewReader(lpOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	root := doc.Benchmarks[0]
	if root.Name != "BenchmarkLPRoot" || root.Iterations != 2 || root.NsPerOp != 378322233 ||
		root.BytesPerOp != 7176816 || root.AllocsPerOp != 15 {
		t.Errorf("BenchmarkLPRoot parsed as %+v", root)
	}
	want := map[string]float64{"cols": 2051, "pivots": 1788, "rows": 866, "status": 4}
	if len(root.Metrics) != len(want) {
		t.Errorf("metrics = %v, want %v", root.Metrics, want)
	}
	for unit, v := range want {
		if root.Metrics[unit] != v {
			t.Errorf("metric %q = %v, want %v", unit, root.Metrics[unit], v)
		}
	}
	axpy := doc.Benchmarks[1]
	if axpy.NsPerOp != 250.4 || axpy.Metrics["MB/s"] != 33096.94 || axpy.Package != "mobius/internal/lp" {
		t.Errorf("BenchmarkAxpyNeg parsed as %+v", axpy)
	}
}

const scaleOutput = `goos: linux
goarch: amd64
pkg: mobius/internal/sim
BenchmarkSimScale/flows=100000/construct-8 	      24	  46700000 ns/op	 8000000 B/op	   13481 allocs/op
BenchmarkSimScale/flows=10000/construct-8  	     270	   4350000 ns/op	 4600000 B/op	    1402 allocs/op
BenchmarkSimScale/flows=10000/run-8        	      80	  13600000 ns/op	 5000000 B/op	    1500 allocs/op
BenchmarkSimScale/flows=100000/run-8       	       8	 148000000 ns/op	50000000 B/op	   48201 allocs/op
BenchmarkSimContention/flows=1024/run-8 	100	  10000000 ns/op
PASS
`

func TestDeriveScaling(t *testing.T) {
	doc, err := parse(strings.NewReader(scaleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Scaling) != 2 {
		t.Fatalf("got %d scaling series (%+v), want 2", len(doc.Scaling), doc.Scaling)
	}
	construct := doc.Scaling[0]
	if construct.Name != "BenchmarkSimScale/construct" || construct.Param != "flows" {
		t.Errorf("series 0 = %q param %q", construct.Name, construct.Param)
	}
	if len(construct.Points) != 2 || construct.Points[0].N != 10000 || construct.Points[1].N != 100000 {
		t.Fatalf("construct points not sorted ascending by n: %+v", construct.Points)
	}
	if p := construct.Points[0]; p.NsPerOp != 4350000 || p.AllocsPerOp != 1402 || p.BytesPerOp != 4600000 {
		t.Errorf("construct point at n=10000 parsed as %+v", p)
	}
	if run := doc.Scaling[1]; run.Name != "BenchmarkSimScale/run" || len(run.Points) != 2 {
		t.Errorf("series 1 = %+v", run)
	}
}

func TestDeriveScalingSkipsSingletons(t *testing.T) {
	sps := deriveScaling([]Result{
		{Name: "BenchmarkSimScale/flows=1024/parallel", NsPerOp: 10},
		{Name: "BenchmarkFlat", NsPerOp: 20},
		{Name: "BenchmarkX/notasize/steady", NsPerOp: 30},
	})
	if len(sps) != 0 {
		t.Fatalf("singleton or unparameterized series must be dropped: %+v", sps)
	}
}

func TestDeriveScalingDedupes(t *testing.T) {
	sps := deriveScaling([]Result{
		{Name: "BenchmarkSimScale/flows=10/run", NsPerOp: 10},
		{Name: "BenchmarkSimScale/flows=10/run", NsPerOp: 99},
		{Name: "BenchmarkSimScale/flows=20/run", NsPerOp: 25},
	})
	if len(sps) != 1 || len(sps[0].Points) != 2 {
		t.Fatalf("duplicate sizes must keep the first sample: %+v", sps)
	}
	if sps[0].Points[0].NsPerOp != 10 {
		t.Errorf("first sample not kept: %+v", sps[0].Points[0])
	}
}
