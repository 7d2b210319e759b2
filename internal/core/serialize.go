package core

import (
	"encoding/json"
	"fmt"
)

// PlanSummary is the JSON-serializable form of a Mobius execution plan,
// for handing a computed partition + mapping to external tooling (the
// real system would feed this to its runtime).
type PlanSummary struct {
	Model         string         `json:"model"`
	Topology      string         `json:"topology"`
	NumGPUs       int            `json:"num_gpus"`
	Microbatches  int            `json:"microbatches"`
	Algorithm     string         `json:"partition_algorithm"`
	MappingScheme string         `json:"mapping_scheme"`
	MappingPerm   []int          `json:"mapping_perm"`
	PredictedStep float64        `json:"predicted_step_seconds"`
	Stages        []StageSummary `json:"stages"`
	MIP           *MIPSummary    `json:"mip,omitempty"`
}

// StageSummary is one pipeline stage of a serialized plan.
type StageSummary struct {
	Index      int     `json:"index"`
	GPU        int     `json:"gpu"`
	FirstLayer int     `json:"first_layer"`
	LastLayer  int     `json:"last_layer"`
	ParamBytes float64 `json:"param_bytes"`
	FwdSeconds float64 `json:"fwd_seconds"`
	BwdSeconds float64 `json:"bwd_seconds"`
}

// MIPSummary records the solver effort of a serialized plan.
type MIPSummary struct {
	TriedStageCounts []int   `json:"tried_stage_counts"`
	Nodes            int     `json:"nodes"`
	SolveSeconds     float64 `json:"solve_seconds"`
	BestStageCount   int     `json:"best_stage_count"`
}

// Summarize converts a plan into its serializable summary.
func (p *Plan) Summarize(opts Options) (*PlanSummary, error) {
	if p.Partition == nil || p.Mapping == nil {
		return nil, fmt.Errorf("core: incomplete plan")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	out := &PlanSummary{
		Model:         opts.Model.Name,
		Topology:      opts.Topology.Name,
		NumGPUs:       opts.Topology.NumGPUs(),
		Microbatches:  opts.Microbatches,
		Algorithm:     p.Partition.Algorithm,
		MappingScheme: p.Mapping.Scheme,
		MappingPerm:   append([]int(nil), p.Mapping.Perm...),
		PredictedStep: p.PredictedStep,
	}
	for j, s := range p.Partition.Stages {
		out.Stages = append(out.Stages, StageSummary{
			Index:      j,
			GPU:        p.Mapping.GPUOf(j),
			FirstLayer: s.First,
			LastLayer:  s.Last,
			ParamBytes: s.ParamBytes,
			FwdSeconds: s.FwdTime,
			BwdSeconds: s.BwdTime,
		})
	}
	if p.MIPStats != nil {
		out.MIP = &MIPSummary{
			TriedStageCounts: append([]int(nil), p.MIPStats.TriedStageCounts...),
			Nodes:            p.MIPStats.Nodes,
			SolveSeconds:     p.MIPStats.SolveTime.Seconds(),
			BestStageCount:   p.MIPStats.BestStageCount,
		}
	}
	return out, nil
}

// MarshalPlan renders the plan summary as indented JSON.
func MarshalPlan(p *Plan, opts Options) ([]byte, error) {
	sum, err := p.Summarize(opts)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(sum, "", "  ")
}
