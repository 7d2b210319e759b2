package plansvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// FuzzPlanRequest throws arbitrary bodies at POST /v1/plan. The service's
// inner planner is the greedy floor, so every input stays cheap whatever
// it asks for. The handler must never panic, must answer 200, 400, 413 or
// 422 with a body that decodes as a PlanResponse (200) or an
// ErrorResponse (every other status), may only serve a plan for a
// topology of at most MaxPlanGPUs GPUs, and must hand every solve a
// deadline at most maxPlanDeadline away. Seeds are valid requests of each
// form, requests at and over every limit (the model_config parameter
// counts that overflow int64 included), and malformed bodies, plus the
// checked-in corpus under testdata/fuzz/FuzzPlanRequest.
func FuzzPlanRequest(f *testing.F) {
	full, err := json.Marshal(PlanRequest{ModelName: "3B", Topology: hw.Commodity(hw.RTX3090Ti, 2, 2)})
	if err != nil {
		f.Fatal(err)
	}
	custom, err := json.Marshal(PlanRequest{Model: model.GPT8B, Topo: "1+3", Microbatches: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(custom)
	f.Add([]byte(`{"model":"8B","topo":"2+2"}`))
	f.Add([]byte(`{"model":"15B","topo":"4+4","partition_algo":"balanced","balanced_stages":8}`))
	f.Add([]byte(`{"model":"3B","topo":"dc","mapping_scheme":"sequential","deadline_ms":1}`))
	f.Add([]byte(`{"model":"3B","topo":"5+4"}`))
	f.Add([]byte(`{"model":"3B","topo":"2+2","microbatches":33}`))
	for _, tc := range overflowBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"model": `))
	f.Add([]byte(``))

	// unbounded records a solve whose deadline is missing or later than
	// maxPlanDeadline from now; the handler solves on the calling goroutine.
	var unbounded error
	svc := New(Config{Inner: core.PlannerFunc(func(ctx context.Context, opts core.Options) (*core.Plan, error) {
		if d, ok := ctx.Deadline(); !ok || d.After(time.Now().Add(maxPlanDeadline)) {
			unbounded = fmt.Errorf("solve deadline %v from now (set: %v), want at most %v", time.Until(d), ok, maxPlanDeadline)
		}
		return core.GreedyPlan(opts, "fuzz: greedy inner planner")
	})})
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		unbounded = nil
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if unbounded != nil {
			t.Fatal(unbounded)
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		switch rec.Code {
		case http.StatusOK:
			var pr PlanResponse
			if err := dec.Decode(&pr); err != nil {
				t.Fatalf("200 body is not a PlanResponse: %v", err)
			}
			if len(pr.MappingPerm) > MaxPlanGPUs {
				t.Fatalf("served a plan over %d GPUs (perm %v)", len(pr.MappingPerm), pr.MappingPerm)
			}
			for _, st := range pr.Stages {
				if st.GPU < 0 || st.GPU >= MaxPlanGPUs {
					t.Fatalf("served a stage on GPU %d, beyond the %d-GPU limit", st.GPU, MaxPlanGPUs)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var er ErrorResponse
			if err := dec.Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("status %d body is not a structured error: %+v (%v)", rec.Code, er, err)
			}
		default:
			t.Fatalf("status %d, want 200, 400, 413 or 422", rec.Code)
		}
	})
}
