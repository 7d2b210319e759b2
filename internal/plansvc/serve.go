package plansvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/planstore"
)

// PlanRequest is the wire form of a planning request. The model is
// named (a Table 3 configuration) or given in full; the topology is a
// compact spec ("2+2", "4", "dc") or a full structure. DeadlineMS
// bounds the solve — past it the ladder degrades, exactly as an
// in-process caller with a context deadline.
type PlanRequest struct {
	ModelName string       `json:"model,omitempty"`
	Model     model.Config `json:"model_config,omitempty"`
	Topo      string       `json:"topo,omitempty"`
	Topology  *hw.Topology `json:"topology,omitempty"`

	Microbatches   int     `json:"microbatches,omitempty"`
	PartitionAlgo  string  `json:"partition_algo,omitempty"`
	BalancedStages int     `json:"balanced_stages,omitempty"`
	MappingScheme  string  `json:"mapping_scheme,omitempty"`
	DeadlineMS     float64 `json:"deadline_ms,omitempty"`
}

// PlanResponse is the wire form of a served plan.
type PlanResponse struct {
	Key            string         `json:"key"`
	Fingerprint    string         `json:"fingerprint"`
	Algorithm      string         `json:"algorithm"`
	Stages         []StageSummary `json:"stages"`
	MappingPerm    []int          `json:"mapping_perm"`
	PredictedStep  float64        `json:"predicted_step_s"`
	Fallback       bool           `json:"fallback,omitempty"`
	FallbackReason string         `json:"fallback_reason,omitempty"`
}

// ErrorResponse is the wire form of a structured error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// maxPlanRequestBytes bounds a /v1/plan request body. A full topology
// plus a full model config fits in a few kilobytes.
const maxPlanRequestBytes = 1 << 20

// maxPlanGPUs bounds the topology a /v1/plan request may ask for, in
// either form: the largest any caller plans is 4+4 (or dc8). The cross
// mapping search grows factorially with the GPU count (milliseconds on
// 4+4, seconds on 5+5, ten or more on 6+6) and does not watch the
// request deadline, so a larger topology is refused before planning.
const maxPlanGPUs = 8

// maxPlanLayers bounds model_config.layers. Table 3's deepest model has
// 64 blocks; the profile and the partition allocate per layer before any
// deadline applies, so a huge count would cost memory up front.
const maxPlanLayers = 256

// maxPlanMicrobatches bounds microbatches. The microbatch ablation
// sweeps up to 16; the MIP has two timing variables per stage and
// microbatch, so its dense LP tableau grows with the square of the count
// (a 15B plan on Topo 2+2 peaks near 130 MB at 16 and 280 MB at 32).
const maxPlanMicrobatches = 32

// maxPlanBalancedStages bounds balanced_stages: every stage holds at
// least one layer, and a model has at most maxPlanLayers blocks plus its
// embedding and head.
const maxPlanBalancedStages = maxPlanLayers + 2

// StageSummary is one pipeline stage of a served plan.
type StageSummary struct {
	First      int     `json:"first"`
	Last       int     `json:"last"`
	GPU        int     `json:"gpu"`
	ParamBytes float64 `json:"param_bytes"`
}

// Handler serves the planning service over HTTP:
//
//	POST /v1/plan     — plan a PlanRequest, JSON in and out
//	GET  /v1/metrics  — the service Metrics snapshot
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	return mux
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"POST only"})
		return
	}
	var preq PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPlanRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&preq); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{"request body too large"})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{fmt.Sprintf("bad request: %v", err)})
		return
	}
	opts, err := preq.options()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{err.Error()})
		return
	}
	ctx := r.Context()
	if preq.DeadlineMS > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, time.Duration(preq.DeadlineMS*float64(time.Millisecond)))
		defer cancel()
	}
	req, err := NewRequest(opts)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{err.Error()})
		return
	}
	plan, err := s.plan(ctx, req)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{err.Error()})
		return
	}
	resp := PlanResponse{
		Key:            req.Key.String(),
		Fingerprint:    Fingerprint(plan),
		Algorithm:      plan.Partition.Algorithm,
		MappingPerm:    plan.Mapping.Perm,
		PredictedStep:  plan.PredictedStep,
		Fallback:       plan.Fallback,
		FallbackReason: plan.FallbackReason,
	}
	for j, st := range plan.Partition.Stages {
		resp.Stages = append(resp.Stages, StageSummary{
			First: st.First, Last: st.Last, GPU: plan.Mapping.GPUOf(j), ParamBytes: st.ParamBytes,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{"GET only"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Metrics
		Breaker string             `json:"breaker"`
		Store   *planstore.Metrics `json:"store,omitempty"`
	}{s.Metrics(), s.BreakerState(), s.StoreMetrics()})
}

// writeJSON encodes v before writing any header, so a value JSON cannot
// represent (a +Inf predicted step from an infeasible partition) is
// answered with a structured 422, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusUnprocessableEntity
		body, _ = json.MarshalIndent(ErrorResponse{fmt.Sprintf("plansvc: response not encodable: %v", err)}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// options resolves the wire request to planning options.
func (p *PlanRequest) options() (core.Options, error) {
	opts := core.Options{
		Model:          p.Model,
		Topology:       p.Topology,
		Microbatches:   p.Microbatches,
		PartitionAlgo:  p.PartitionAlgo,
		BalancedStages: p.BalancedStages,
		MappingScheme:  p.MappingScheme,
	}
	if p.ModelName != "" {
		found := false
		for _, m := range model.Table3() {
			if m.Name == p.ModelName {
				opts.Model, found = m, true
				break
			}
		}
		if !found {
			return opts, fmt.Errorf("plansvc: unknown model %q (want a Table 3 name or a full model_config)", p.ModelName)
		}
	}
	if opts.Topology == nil {
		if p.Topo == "" {
			return opts, fmt.Errorf("plansvc: request needs a topo spec or a full topology")
		}
		topo, err := hw.ParseSpec(p.Topo)
		if err != nil {
			return opts, err
		}
		opts.Topology = topo
	}
	if err := opts.Topology.Validate(); err != nil {
		return opts, err
	}
	if n := opts.Topology.NumGPUs(); n > maxPlanGPUs {
		return opts, fmt.Errorf("plansvc: topology has %d GPUs, over the %d-GPU limit of a plan request", n, maxPlanGPUs)
	}
	if n := opts.Model.Layers; n > maxPlanLayers {
		return opts, fmt.Errorf("plansvc: model has %d layers, over the %d-layer limit of a plan request", n, maxPlanLayers)
	}
	if n := opts.Microbatches; n > maxPlanMicrobatches {
		return opts, fmt.Errorf("plansvc: %d microbatches, over the %d-microbatch limit of a plan request", n, maxPlanMicrobatches)
	}
	if n := opts.BalancedStages; n > maxPlanBalancedStages {
		return opts, fmt.Errorf("plansvc: %d balanced stages, over the %d-stage limit of a plan request", n, maxPlanBalancedStages)
	}
	return opts, nil
}
