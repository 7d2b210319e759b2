package partition

import "fmt"

// Schedule holds the analytic pipeline timing of a partition: the
// earliest-start solution of the MIP's pipeline-order constraints for a
// fixed stage decomposition.
type Schedule struct {
	// StepTime is the modelled duration of one training step.
	StepTime float64
	// TF and TB hold forward/backward start times, indexed [stage][mb].
	TF, TB [][]float64
	// PrefetchF and PrefetchB are the achievable prefetch bytes per stage.
	PrefetchF, PrefetchB []float64
}

// Evaluate computes the analytic pipeline step time of a partition under
// the Mobius execution model: stages are swapped from DRAM, the next
// stage on a GPU is prefetched into reserved memory while the current one
// computes, and boundary activations hop between adjacent stages. It is
// the earliest-start solution of constraints (8)-(11) of the paper and is
// exact for a fixed partition.
//
// Evaluate returns Schedule.StepTime == Infeasible (with a nil error)
// when a stage exceeds GPU memory.
func Evaluate(params Params, part *Partition) (*Schedule, error) {
	params = params.withDefaults()
	if err := params.validate(); err != nil {
		return nil, err
	}
	if err := part.Validate(params.Profile); err != nil {
		return nil, err
	}

	S := len(part.Stages)
	N := params.NumGPUs
	M := params.Microbatches
	G := params.GPUMem
	B := params.Bandwidth
	L := params.Latency

	sch := &Schedule{
		TF:        make([][]float64, S),
		TB:        make([][]float64, S),
		PrefetchF: make([]float64, S),
		PrefetchB: make([]float64, S),
	}
	for j := 0; j < S; j++ {
		sch.TF[j] = make([]float64, M)
		sch.TB[j] = make([]float64, M)
	}

	// Memory constraint (4): every stage must fit on its GPU in both
	// passes.
	if !fitsMemory(part, G) {
		sch.StepTime = Infeasible
		return sch, nil
	}

	stg := part.Stages

	// Forward pass: stages ascending.
	for j := 0; j < S; j++ {
		// When the stage's data become available on the GPU.
		var ready float64
		if j < N {
			// First-round stages upload at step start.
			ready = L + stg[j].UploadFwd()/B
		} else {
			prev := stg[j-N] // previous stage on the same GPU
			dPrev := prev.FwdTime + sch.TF[j-N][M-1] - sch.TF[j-N][0]
			pf := min(stg[j].UploadFwd(), max(0, G-prev.MemFwd()), B*dPrev)
			sch.PrefetchF[j] = pf
			ready = sch.TF[j-N][M-1] + prev.FwdTime + L + (stg[j].UploadFwd()-pf)/B
		}
		for m := 0; m < M; m++ {
			t := ready
			if m > 0 {
				t = max(t, sch.TF[j][m-1]+stg[j].FwdTime) // constraint (10)
			}
			if j > 0 {
				// Constraint (8): upstream activation arrival, charged a
				// per-hop setup latency.
				t = max(t, sch.TF[j-1][m]+stg[j-1].FwdTime+L+stg[j].ActInBytes/B)
			}
			sch.TF[j][m] = t
		}
	}

	// Backward pass: stages descending. Constraint (11) seeds the last
	// stage; stages in the final round remain resident from forward.
	for j := S - 1; j >= 0; j-- {
		var ready float64
		if j < S-N {
			nxt := stg[j+N] // stage executed before this one on the same GPU
			dNxt := nxt.BwdTime + sch.TB[j+N][M-1] - sch.TB[j+N][0]
			pb := min(stg[j].UploadBwd(M), max(0, G-nxt.MemBwd()), B*dNxt)
			sch.PrefetchB[j] = pb
			ready = sch.TB[j+N][M-1] + nxt.BwdTime + L + (stg[j].UploadBwd(M)-pb)/B
		}
		for m := 0; m < M; m++ {
			t := ready
			if j == S-1 && m == 0 {
				t = max(t, sch.TF[S-1][M-1]+stg[S-1].FwdTime) // constraint (11)
			}
			if m > 0 {
				t = max(t, sch.TB[j][m-1]+stg[j].BwdTime)
			}
			if j < S-1 {
				// Activation-gradient arrival from the downstream stage.
				t = max(t, sch.TB[j+1][m]+stg[j+1].BwdTime+L+stg[j].ActOutBytes/B)
			}
			sch.TB[j][m] = t
		}
	}

	sch.StepTime = sch.TB[0][M-1] + stg[0].BwdTime
	return sch, nil
}

// StepTime is a convenience wrapper returning only the step duration.
func StepTime(params Params, part *Partition) (float64, error) {
	sch, err := Evaluate(params, part)
	if err != nil {
		return 0, err
	}
	return sch.StepTime, nil
}

func (s *Schedule) String() string {
	return fmt.Sprintf("schedule: step=%.3fs stages=%d", s.StepTime, len(s.TF))
}
