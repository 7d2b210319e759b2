package plansvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
)

// FuzzPlanRequest throws arbitrary bodies at POST /v1/plan. The service's
// inner planner is the greedy floor, so every input stays cheap whatever
// it asks for. The handler must never panic, must answer 200, 400, 413 or
// 422 with a body that decodes as a PlanResponse (200) or an
// ErrorResponse (every other status), and may only serve a plan for a
// topology of at most maxPlanGPUs GPUs. Seeds are valid requests of each
// form, requests at and over every limit, and malformed bodies, plus the
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
	f.Add([]byte(`{"model": `))
	f.Add([]byte(``))

	svc := New(Config{Inner: core.PlannerFunc(func(_ context.Context, opts core.Options) (*core.Plan, error) {
		return core.GreedyPlan(opts, "fuzz: greedy inner planner")
	})})
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		switch rec.Code {
		case http.StatusOK:
			var pr PlanResponse
			if err := dec.Decode(&pr); err != nil {
				t.Fatalf("200 body is not a PlanResponse: %v", err)
			}
			if len(pr.MappingPerm) > maxPlanGPUs {
				t.Fatalf("served a plan over %d GPUs (perm %v)", len(pr.MappingPerm), pr.MappingPerm)
			}
			for _, st := range pr.Stages {
				if st.GPU < 0 || st.GPU >= maxPlanGPUs {
					t.Fatalf("served a stage on GPU %d, beyond the %d-GPU limit", st.GPU, maxPlanGPUs)
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
