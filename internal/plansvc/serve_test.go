package plansvc

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// TestServePlanAndMetrics drives the HTTP surface end to end: a plan
// request solves, an identical one hits the cache with the same
// fingerprint, and the metrics endpoint reports both.
func TestServePlanAndMetrics(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := `{"model": "8B", "topo": "2+2", "partition_algo": "min-stage"}`
	post := func() PlanResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var pr PlanResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	first := post()
	if len(first.Stages) == 0 || len(first.MappingPerm) != 4 {
		t.Fatalf("implausible plan response: %+v", first)
	}
	second := post()
	if second.Fingerprint != first.Fingerprint || second.Key != first.Key {
		t.Errorf("identical request produced a different plan")
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 || m.Hits != 1 || m.Solves != 1 {
		t.Errorf("metrics = %+v, want 2 requests / 1 hit / 1 solve", m)
	}
}

// TestServeBalancedStages: the balanced algorithm's stage-count knob is
// reachable over the wire, and an unplannable request (balanced with no
// stage count) is a 422, not a crash.
func TestServeBalancedStages(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model": "8B", "topo": "2+2", "partition_algo": "balanced", "balanced_stages": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Stages) != 4 {
		t.Errorf("got %d stages, want 4", len(pr.Stages))
	}

	bad, err := http.Post(srv.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model": "8B", "topo": "2+2", "partition_algo": "balanced"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("balanced with no stage count: status %d, want 422", bad.StatusCode)
	}
}

// TestServeRejectsBadRequests: malformed JSON, unknown fields, unknown
// models and missing or invalid topologies are 400s, and GET /v1/plan is
// 405, each with a structured error body.
func TestServeRejectsBadRequests(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"malformed":      `{"model": `,
		"unknown-field":  `{"model": "8B", "topo": "2+2", "bogus": 1}`,
		"unknown-model":  `{"model": "9000B", "topo": "2+2"}`,
		"no-topology":    `{"model": "8B"}`,
		"empty-topology": `{"model": "8B", "topology": {"GPUs": []}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		requireErrorResponse(t, name, resp)
	}

	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
	requireErrorResponse(t, "GET /v1/plan", resp)
}

// requireErrorResponse closes resp after checking that it carries a
// structured error: an application/json body that decodes as an
// ErrorResponse with a message.
func requireErrorResponse(t *testing.T, name string, resp *http.Response) ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
	var er ErrorResponse
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&er); err != nil || er.Error == "" {
		t.Errorf("%s: body %+v (%v), want a structured error", name, er, err)
	}
	return er
}

// TestServeRejectsOversizedTopology: a topology over eight GPUs, as a
// compact spec or in full, is a structured 400 that never reaches the
// planner; 6+6 would otherwise spend seconds in the cross mapping search
// whatever the deadline. So are a model over 256 layers, more than 32
// microbatches and more than 258 balanced stages. Eight GPUs, 32
// microbatches and 258 balanced stages of a 256-layer model still plan.
func TestServeRejectsOversizedTopology(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	full, err := json.Marshal(PlanRequest{
		ModelName: "3B", Topology: hw.Commodity(hw.RTX3090Ti, 5, 4),
		PartitionAlgo: "balanced", BalancedStages: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	deep := model.GPT3B
	deep.Name = "deep"
	deep.Layers = 2000000000
	deepBody, err := json.Marshal(PlanRequest{Model: deep, Topo: "2+2"})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct{ body, limit string }{
		"6+6":               {`{"model":"3B","topo":"6+6","partition_algo":"balanced","balanced_stages":12,"deadline_ms":100}`, "8-GPU limit"},
		"9":                 {`{"model":"3B","topo":"9","partition_algo":"balanced","balanced_stages":9}`, "8-GPU limit"},
		"dc9":               {`{"model":"3B","topo":"dc9","partition_algo":"balanced","balanced_stages":9}`, "8-GPU limit"},
		"5+4":               {`{"model":"3B","topo":"5+4"}`, "8-GPU limit"},
		"full":              {string(full), "8-GPU limit"},
		"layers":            {string(deepBody), "256-layer limit"},
		"microbatches":      {`{"model":"3B","topo":"2+2","microbatches":33}`, "32-microbatch limit"},
		"microbatches-huge": {`{"model":"3B","topo":"2+2","microbatches":2000000000}`, "32-microbatch limit"},
		"balanced-stages":   {`{"model":"3B","topo":"2+2","partition_algo":"balanced","balanced_stages":259}`, "258-stage limit"},
	} {
		resp := post(tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if er := requireErrorResponse(t, name, resp); !strings.Contains(er.Error, tc.limit) {
			t.Errorf("%s: error %q, want it to name the %s", name, er.Error, tc.limit)
		}
	}
	if m := svc.Metrics(); m.Requests != 0 {
		t.Errorf("oversized requests reached the planner: %d requests", m.Requests)
	}

	atLimit := model.GPT3B
	atLimit.Name = "at-limit"
	atLimit.Layers = maxPlanLayers
	atLimitBody, err := json.Marshal(PlanRequest{Model: atLimit, Topo: "4+4",
		Microbatches: maxPlanMicrobatches, PartitionAlgo: "balanced", BalancedStages: maxPlanBalancedStages})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"4+4":      `{"model":"3B","topo":"4+4","partition_algo":"balanced","balanced_stages":8}`,
		"at-limit": string(atLimitBody),
	} {
		resp := post(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", name, resp.StatusCode)
		}
	}
}

// overflowBodies are plan requests whose model_config parameter counts
// overflow int64: a block at hidden 1e9 (12·h²+13·h), and an embedding
// whose vocab size × hidden does. Each names the dimension Validate
// rejects it for.
var overflowBodies = map[string]struct{ body, dim string }{
	"block": {`{"model_config":{"Name":"wide","Layers":2,"Hidden":1000000000,"Heads":1,"VocabSize":50257,"SeqLen":512,"MicrobatchSize":1},"topo":"2+2"}`,
		"hidden 1000000000"},
	"vocab": {`{"model_config":{"Name":"vocab","Layers":2,"Hidden":4096,"Heads":32,"VocabSize":4000000000000000,"SeqLen":512,"MicrobatchSize":1},"topo":"2+2"}`,
		"vocab size 4000000000000000"},
}

// TestServeRejectsOverflowingModel: a model_config whose block,
// embedding or head parameter count overflows int64 is a structured 400
// naming the dimension, and never reaches the planner (it used to wrap
// to a negative parameter count and fail partitioning with a 422).
func TestServeRejectsOverflowingModel(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	for name, tc := range overflowBodies {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if er := requireErrorResponse(t, name, resp); !strings.Contains(er.Error, tc.dim) {
			t.Errorf("%s: error %q, want it to name %s", name, er.Error, tc.dim)
		}
	}
	if m := svc.Metrics(); m.Requests != 0 {
		t.Errorf("overflowing models reached the planner: %d requests", m.Requests)
	}
}

// TestServeUnencodablePlanIs422: a balanced 51B plan on 2+2 is
// infeasible, so its predicted step is +Inf, which JSON cannot encode.
// The handler must answer with a structured 422, not a 200 with an
// empty body.
func TestServeUnencodablePlanIs422(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model": "51B", "topo": "2+2", "partition_algo": "balanced", "balanced_stages": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("422 body is not a structured error: %v", err)
	}
	if !strings.Contains(er.Error, "not encodable") {
		t.Errorf("error = %q, want it to name the encoding failure", er.Error)
	}
}

// TestServeRejectsOversizedBody: a body past the 1 MiB cap is a 413,
// whether it is sent with a Content-Length or chunked.
func TestServeRejectsOversizedBody(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// A valid request padded with whitespace past the cap: only its size
	// can make it fail.
	body := `{"model": "8B", "topo": "2+2"` + strings.Repeat(" ", maxPlanRequestBytes) + `}`
	for name, r := range map[string]io.Reader{
		"declared": strings.NewReader(body),
		"chunked":  struct{ io.Reader }{strings.NewReader(body)},
	} {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", name, resp.StatusCode)
		}
		requireErrorResponse(t, name, resp)
	}
	if m := svc.Metrics(); m.Requests != 0 {
		t.Errorf("oversized bodies reached the planner: %d requests", m.Requests)
	}
}

// TestServeBoundsEveryDeadline: every solve runs under a deadline no
// later than maxPlanDeadline from now, whether the request sets no
// deadline_ms or one so large that converting it to a Duration would
// overflow to an already expired deadline.
func TestServeBoundsEveryDeadline(t *testing.T) {
	for name, body := range map[string]string{
		"none": `{"model":"3B","topo":"2+2"}`,
		"huge": `{"model":"3B","topo":"2+2","deadline_ms":1e300}`,
	} {
		var deadline, now time.Time
		var hasDeadline bool
		svc := New(Config{Inner: core.PlannerFunc(func(ctx context.Context, opts core.Options) (*core.Plan, error) {
			now = time.Now()
			deadline, hasDeadline = ctx.Deadline()
			return core.GreedyPlan(opts, "test: greedy inner planner")
		})})
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
		if now.IsZero() {
			t.Fatalf("%s: the request never reached the planner: %s", name, rec.Body)
		}
		if !hasDeadline {
			t.Fatalf("%s: solve ran without a deadline", name)
		}
		if !deadline.After(now) || deadline.After(now.Add(maxPlanDeadline)) {
			t.Errorf("%s: deadline %v from now, want in (0, %v]", name, deadline.Sub(now), maxPlanDeadline)
		}
	}
}

// TestServeExpiredDeadlineIs504: an uncached MIP request (8B on Topo
// 4+4, a cold plan of seconds) under deadline_ms 1 runs out of time
// mid-plan, and the handler answers 504 with a structured error naming
// the deadline, not a plan and not a 422.
func TestServeExpiredDeadlineIs504(t *testing.T) {
	svc := New(Config{})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan",
		strings.NewReader(`{"model":"8B","topo":"4+4","deadline_ms":1}`)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	if er := requireErrorResponse(t, "deadline_ms 1", rec.Result()); !strings.Contains(er.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("error %q, want it to name the deadline", er.Error)
	}
	if m := svc.Metrics(); m.Solves != 1 || m.Handoffs != 1 || m.CacheEntries != 0 {
		t.Errorf("metrics %+v, want one solve handed off and nothing cached", m)
	}
}
