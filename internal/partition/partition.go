// Package partition implements Mobius' model partition algorithms (§3.2):
// the MIP partition algorithm built on internal/milp (the paper solves the
// same program with Gurobi), plus the maximum-stage and minimum-stage
// baselines used in the Figure 9 ablation, and an exact schedule evaluator
// that computes the pipeline step time of any candidate partition.
package partition

import (
	"fmt"
	"math"

	"mobius/internal/model"
	"mobius/internal/profile"
)

// Stage is a contiguous range of model layers executed as one pipeline
// stage, with its aggregate cost-model statistics.
type Stage struct {
	// First and Last are inclusive layer indices into the profile.
	First, Last int

	// FwdTime and BwdTime are per-microbatch compute durations.
	FwdTime, BwdTime float64
	// ParamBytes and GradBytes are the FP16 footprints swapped between
	// DRAM and GPU memory.
	ParamBytes, GradBytes float64
	// ActInBytes and ActOutBytes are the boundary activations received
	// and emitted per microbatch.
	ActInBytes, ActOutBytes float64
	// WorkingBytes is the peak transient compute footprint.
	WorkingBytes float64
	// Blocks counts the transformer blocks in the stage.
	Blocks int
}

// NumLayers returns the number of model layers in the stage.
func (s Stage) NumLayers() int { return s.Last - s.First + 1 }

// MemFwd returns the GPU memory the stage occupies during forward:
// parameters, working set, and a double-buffered boundary activation
// awaiting offload.
func (s Stage) MemFwd() float64 {
	return s.ParamBytes + s.WorkingBytes + 2*s.ActOutBytes
}

// MemBwd returns the GPU memory during backward: parameters, accumulated
// gradients, working set, and the double-buffered incoming checkpoint.
func (s Stage) MemBwd() float64 {
	return s.ParamBytes + s.GradBytes + s.WorkingBytes + 2*s.ActInBytes
}

// UploadFwd returns the bytes uploaded from DRAM before forward use.
func (s Stage) UploadFwd() float64 { return s.ParamBytes }

// UploadBwd returns the bytes uploaded before backward use: parameters
// plus the M checkpointed boundary activations.
func (s Stage) UploadBwd(microbatches int) float64 {
	return s.ParamBytes + float64(microbatches)*s.ActInBytes
}

// Partition is a complete stage decomposition of a model.
type Partition struct {
	Stages    []Stage
	Algorithm string
}

// NumStages returns the stage count.
func (p *Partition) NumStages() int { return len(p.Stages) }

// Validate checks that the partition covers the profiled model exactly
// once, in order.
func (p *Partition) Validate(prof *profile.Profile) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("partition: no stages")
	}
	next := 0
	for i, s := range p.Stages {
		if s.First != next {
			return fmt.Errorf("partition: stage %d starts at layer %d, want %d", i, s.First, next)
		}
		if s.Last < s.First {
			return fmt.Errorf("partition: stage %d empty range [%d,%d]", i, s.First, s.Last)
		}
		next = s.Last + 1
	}
	if next != prof.NumLayers() {
		return fmt.Errorf("partition: covers %d of %d layers", next, prof.NumLayers())
	}
	return nil
}

// Params describes the execution environment the partition targets.
type Params struct {
	// Profile supplies per-layer statistics.
	Profile *profile.Profile
	// NumGPUs is N in the paper's formulation.
	NumGPUs int
	// Microbatches is M; the paper sets M = N.
	Microbatches int
	// GPUMem is the usable per-GPU memory G in bytes.
	GPUMem float64
	// Bandwidth is the average effective GPU transfer bandwidth B in B/s.
	Bandwidth float64
	// Latency is the fixed per-transfer setup overhead in seconds; it
	// charges every stage upload and boundary-activation hop, penalizing
	// partitions with many small stages.
	Latency float64
}

func (p Params) withDefaults() Params {
	if p.Microbatches <= 0 {
		p.Microbatches = p.NumGPUs
	}
	return p
}

func (p Params) validate() error {
	if p.Profile == nil || p.Profile.NumLayers() == 0 {
		return fmt.Errorf("partition: missing profile")
	}
	if p.NumGPUs <= 0 {
		return fmt.Errorf("partition: NumGPUs must be positive")
	}
	if p.GPUMem <= 0 || p.Bandwidth <= 0 {
		return fmt.Errorf("partition: GPUMem and Bandwidth must be positive")
	}
	return nil
}

// buildStage aggregates layers [first,last] of the profile into a Stage.
func buildStage(prof *profile.Profile, first, last int) Stage {
	s := Stage{First: first, Last: last}
	for i := first; i <= last; i++ {
		l := prof.Layers[i]
		s.FwdTime += l.FwdTime
		s.BwdTime += l.BwdTime
		s.ParamBytes += l.ParamBytes
		s.GradBytes += l.GradBytes
		if l.WorkingBytes > s.WorkingBytes {
			s.WorkingBytes = l.WorkingBytes
		}
		if l.Layer.Kind == model.KindBlock {
			s.Blocks++
		}
	}
	s.ActOutBytes = prof.Layers[last].ActOutBytes
	if first > 0 {
		s.ActInBytes = prof.Layers[first-1].ActOutBytes
	}
	return s
}

// FromBoundaries builds a partition from stage sizes (layers per stage).
func FromBoundaries(prof *profile.Profile, sizes []int, algorithm string) (*Partition, error) {
	p := &Partition{Algorithm: algorithm}
	at := 0
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("partition: non-positive stage size %d", n)
		}
		if at+n > prof.NumLayers() {
			return nil, fmt.Errorf("partition: stage sizes %v overrun the %d layers", sizes, prof.NumLayers())
		}
		p.Stages = append(p.Stages, buildStage(prof, at, at+n-1))
		at += n
	}
	if err := p.Validate(prof); err != nil {
		return nil, err
	}
	return p, nil
}

// maxLayersPerStage returns the largest contiguous block count whose
// backward footprint fits in GPU memory, given the uniform block size of
// the profiled model. Overheads of the (small) embedding and head layers
// are absorbed into the first/last stage checks by Evaluate.
func maxLayersPerStage(p Params) int {
	prof := p.Profile
	var blk *profile.LayerStats
	for i := range prof.Layers {
		if prof.Layers[i].Layer.Kind == model.KindBlock {
			blk = &prof.Layers[i]
			break
		}
	}
	if blk == nil {
		return 1
	}
	perBlock := blk.ParamBytes + blk.GradBytes
	overhead := blk.WorkingBytes + 4*blk.ActOutBytes
	n := int((p.GPUMem - overhead) / perBlock)
	if n < 1 {
		n = 1
	}
	return n
}

// Infeasible marks an unschedulable partition in Evaluate results.
var Infeasible = math.Inf(1)
