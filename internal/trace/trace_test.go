package trace

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mobius/internal/sim"
)

func TestRecorderCapturesTaggedTasks(t *testing.T) {
	s := sim.New()
	e := s.NewEngine("gpu0")
	link := s.NewResource("link", 10e9)

	c := s.Compute(s.Name("fwd"), e, 1)
	c.SetTag(Tag{Kind: KindCompute, GPU: 0, PeerGPU: -1})
	tr := s.Transfer(s.Name("up"), nil, s.NewPath(link), 10e9, 0)
	tr.SetTag(Tag{Kind: KindParamUpload, GPU: 0, PeerGPU: -1})
	s.Compute(s.Name("untagged"), e, 1, c)

	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.Record(s.Finished())
	if len(rec.Computes) != 1 {
		t.Fatalf("computes: %d", len(rec.Computes))
	}
	if len(rec.Flows) != 1 {
		t.Fatalf("flows: %d", len(rec.Flows))
	}
	if bw := rec.Flows[0].Bandwidth(); math.Abs(bw-10e9) > 1 {
		t.Fatalf("bandwidth %g", bw)
	}
}

func TestTotalBytesFilters(t *testing.T) {
	r := NewRecorder()
	r.Flows = []FlowRecord{
		{Tag: Tag{Kind: KindParamUpload}, Bytes: 100},
		{Tag: Tag{Kind: KindActTransfer}, Bytes: 30},
		{Tag: Tag{Kind: KindParamUpload}, Bytes: 50},
	}
	if got := r.TotalBytes(nil); got != 180 {
		t.Fatalf("total: %g", got)
	}
	got := r.TotalBytes(func(tag Tag) bool { return tag.Kind == KindParamUpload })
	if got != 150 {
		t.Fatalf("filtered: %g", got)
	}
}

func TestCDFQuantiles(t *testing.T) {
	c := NewCDF([]Sample{
		{Value: 1, Weight: 1},
		{Value: 2, Weight: 1},
		{Value: 3, Weight: 1},
		{Value: 4, Weight: 1},
	})
	if got := c.Median(); got != 2 {
		t.Fatalf("median %g", got)
	}
	if got := c.Quantile(1.0); got != 4 {
		t.Fatalf("q100 %g", got)
	}
	if got := c.FractionAtOrBelow(2.5); got != 0.5 {
		t.Fatalf("F(2.5)=%g", got)
	}
	if got := c.FractionAbove(3); got != 0.25 {
		t.Fatalf("P[>3]=%g", got)
	}
	if c.Max() != 4 {
		t.Fatalf("max %g", c.Max())
	}
}

func TestCDFWeighted(t *testing.T) {
	// 90% of bytes at 12 GB/s, 10% at 6 GB/s.
	c := NewCDF([]Sample{
		{Value: 6e9, Weight: 1e9},
		{Value: 12e9, Weight: 9e9},
	})
	if got := c.FractionAtOrBelow(6e9); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("F(6GB/s)=%g", got)
	}
	if got := c.Median(); got != 12e9 {
		t.Fatalf("median %g", got)
	}
}

func TestCDFEmptyAndRender(t *testing.T) {
	var c CDF
	if !c.Empty() || c.Median() != 0 || c.FractionAtOrBelow(1) != 0 {
		t.Fatal("empty CDF misbehaves")
	}
	if c.Render(10, 1, 20) != "(no data)" {
		t.Fatal("empty render")
	}
	full := NewCDF([]Sample{{Value: 5, Weight: 1}})
	if full.Render(10, 1, 20) == "" {
		t.Fatal("render empty string")
	}
	if pts := full.Points(4); len(pts) != 4 {
		t.Fatalf("points: %d", len(pts))
	}
}

// TestUnionLength measures a union as the union minus nothing.
func TestUnionLength(t *testing.T) {
	iv := []interval{{0, 2}, {1, 3}, {5, 6}}
	if got := subtractLength(iv, nil); got != 4 {
		t.Fatalf("union: %g", got)
	}
	if got := subtractLength(nil, nil); got != 0 {
		t.Fatalf("empty union: %g", got)
	}
}

func TestSubtractLength(t *testing.T) {
	a := []interval{{0, 10}}
	b := []interval{{2, 4}, {6, 7}}
	if got := subtractLength(a, b); got != 7 {
		t.Fatalf("subtract: %g", got)
	}
	if got := subtractLength(a, nil); got != 10 {
		t.Fatalf("subtract none: %g", got)
	}
	if got := subtractLength(nil, b); got != 0 {
		t.Fatalf("empty minus: %g", got)
	}
	// B fully covers A.
	if got := subtractLength([]interval{{1, 2}}, []interval{{0, 5}}); got != 0 {
		t.Fatalf("covered: %g", got)
	}
}

// TestSubtractLengthProperty cross-checks the sweep implementation
// against a discretized measure on random interval sets.
func TestSubtractLengthProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func(n int) []interval {
			out := make([]interval, n)
			for i := range out {
				a := float64(r.Intn(50))
				out[i] = interval{a, a + float64(1+r.Intn(10))}
			}
			return out
		}
		a := gen(1 + r.Intn(5))
		b := gen(r.Intn(5))
		got := subtractLength(append([]interval(nil), a...), append([]interval(nil), b...))
		// Discretized ground truth on a fine grid.
		const step = 0.5
		var want float64
		for x := 0.0; x < 70; x += step {
			mid := x + step/2
			inA, inB := false, false
			for _, iv := range a {
				if mid >= iv.a && mid < iv.b {
					inA = true
				}
			}
			for _, iv := range b {
				if mid >= iv.a && mid < iv.b {
					inB = true
				}
			}
			if inA && !inB {
				want += step
			}
		}
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNonOverlappedComm(t *testing.T) {
	r := NewRecorder()
	// GPU 0: compute [0,4], comm [2,6] -> non-overlap [4,6] = 2.
	r.Computes = []ComputeRecord{{Tag: Tag{GPU: 0}, Start: 0, End: 4}}
	r.Flows = []FlowRecord{{Tag: Tag{GPU: 0, PeerGPU: -1}, Start: 2, End: 6, Bytes: 1}}
	if got := r.NonOverlappedComm(0); got != 2 {
		t.Fatalf("non-overlap: %g", got)
	}
	// Peer GPU also sees the flow.
	r.Flows[0].Tag.PeerGPU = 1
	if got := r.NonOverlappedComm(1); got != 4 {
		t.Fatalf("peer non-overlap: %g", got)
	}
	frac := r.NonOverlappedCommFraction(2, 10)
	if math.Abs(frac-(2+4)/20.0) > 1e-12 {
		t.Fatalf("fraction: %g", frac)
	}
}

// TestCDFMonotone: F is non-decreasing on random data.
func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = Sample{Value: r.Float64() * 100, Weight: r.Float64() * 10}
		}
		c := NewCDF(samples)
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.Float64() * 120
		}
		sort.Float64s(xs)
		prev := -1.0
		for _, x := range xs {
			v := c.FractionAtOrBelow(x)
			if v < prev-1e-12 || v < 0 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Flows = []FlowRecord{
		{Tag: Tag{Kind: KindParamUpload, GPU: 0, PeerGPU: -1, Stage: 3, Microbatch: -1}, Start: 1, End: 2, Bytes: 1e9},
	}
	r.Computes = []ComputeRecord{
		{Tag: Tag{Kind: KindCompute, GPU: 0, PeerGPU: -1, Stage: 3, Microbatch: 0}, Start: 0.5, End: 0.9},
	}
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %d\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "event,kind,gpu") {
		t.Fatalf("header: %s", lines[0])
	}
	// Sorted by start: compute (0.5) before flow (1).
	if !strings.HasPrefix(lines[1], "compute,") || !strings.HasPrefix(lines[2], "flow,param-upload") {
		t.Fatalf("ordering:\n%s", out)
	}
	if !strings.Contains(lines[2], "1.000") {
		t.Fatalf("bandwidth column missing: %s", lines[2])
	}
}

func TestGanttRenders(t *testing.T) {
	r := NewRecorder()
	r.Computes = []ComputeRecord{{Tag: Tag{GPU: 0}, Start: 0, End: 1}}
	r.Flows = []FlowRecord{{Tag: Tag{Kind: KindParamUpload, GPU: 0, PeerGPU: -1}, Start: 0, End: 0.5, Bytes: 1}}
	out := r.RenderGantt(1, 1, 40)
	if !strings.Contains(out, "gpu0 compute") || !strings.Contains(out, "U") || !strings.Contains(out, "#") {
		t.Fatalf("gantt:\n%s", out)
	}
	if got := r.RenderGantt(1, 0, 40); got != "(no timeline)" {
		t.Fatalf("degenerate gantt: %q", got)
	}
}
