package plansvc

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
// models and missing topologies are 400s, and GET /v1/plan is 405.
func TestServeRejectsBadRequests(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"malformed":     `{"model": `,
		"unknown-field": `{"model": "8B", "topo": "2+2", "bogus": 1}`,
		"unknown-model": `{"model": "9000B", "topo": "2+2"}`,
		"no-topology":   `{"model": "8B"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
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
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", name, resp.StatusCode)
		}
	}
	if m := svc.Metrics(); m.Requests != 0 {
		t.Errorf("oversized bodies reached the planner: %d requests", m.Requests)
	}
}
