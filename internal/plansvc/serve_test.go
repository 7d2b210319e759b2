package plansvc

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	if first.Fallback {
		t.Fatalf("unexpected fallback: %s", first.FallbackReason)
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
	var m struct {
		Metrics
		Breaker string `json:"breaker"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 || m.Hits != 1 || m.Led != 1 {
		t.Errorf("metrics = %+v, want 2 requests / 1 hit / 1 led", m.Metrics)
	}
	if m.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed", m.Breaker)
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
