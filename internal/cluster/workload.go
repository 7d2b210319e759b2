package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mobius/internal/core"
	"mobius/internal/plansvc"
	"mobius/internal/resil"
)

// jobState is where a job currently is in its lifecycle; the paranoid
// audit recounts these against the class counters.
type jobState int

const (
	jsPending jobState = iota // not yet arrived
	jsQueued
	jsRunning
	jsParked // on a dead server, awaiting detection
	jsRetry  // dispatch failed, backoff pending
	jsCompleted
	jsRejected
	jsShed
	jsFailed
)

// job is one fine-tuning request flowing through the fleet.
type job struct {
	id      int
	class   int // indexes Config.Classes and run.shapes
	arrival float64
	steps   int

	state      jobState
	attempts   int
	enqueuedAt float64
	startedAt  float64 // first dispatch start (-1 until then)
	execStart  float64 // current dispatch: end of plan+migration phase
	endAt      float64
	server     int
	degraded   bool

	// reland marks a job that lost its server; resumeStep is the last
	// checkpointed step it resumes from (0 = from scratch).
	reland     bool
	resumeStep int

	times StepTimes
	every int
}

// classOptions builds the planning options of one class's jobs.
func classOptions(cfg Config, ci int) core.Options {
	cl := cfg.Classes[ci]
	return core.Options{
		Model:          cl.Model,
		Topology:       cfg.Topology,
		Microbatches:   cl.Microbatches,
		PartitionAlgo:  cl.PartitionAlgo,
		BalancedStages: cl.BalancedStages,
	}
}

// shape is one class's planning request and its content key, shared by
// every job of the class and by every server that has the plan cached
// (affinity).
type shape struct {
	opts core.Options
	key  plansvc.Key
}

// classShapes keys every class once per run. A class whose options
// cannot be keyed cannot be planned either, so its KeyOf error fails
// the run before any event.
func classShapes(cfg Config) ([]shape, error) {
	shapes := make([]shape, len(cfg.Classes))
	for ci := range cfg.Classes {
		opts := classOptions(cfg, ci)
		key, err := plansvc.KeyOf(opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: class %q: %w", cfg.Classes[ci].Name, err)
		}
		shapes[ci] = shape{opts: opts, key: key}
	}
	return shapes, nil
}

// generateJobs derives the whole arrival trace from the seed: one
// independent stream per class (interarrivals and step counts
// interleaved, so adding a class never reshuffles another's jobs),
// merged and id-stamped in deterministic (arrival, class, index) order.
func generateJobs(cfg Config) []job {
	type draw struct {
		at         float64
		class, idx int
		steps      int
	}
	var all []draw
	for ci, cl := range cfg.Classes {
		rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, ci)))
		t := 0.0
		for idx := 0; ; idx++ {
			t += interarrival(rng, cl)
			steps := cl.StepsMin
			if cl.StepsMax > cl.StepsMin {
				steps += rng.Intn(cl.StepsMax - cl.StepsMin + 1)
			}
			if t >= cfg.HorizonS {
				break
			}
			all = append(all, draw{at: t, class: ci, idx: idx, steps: steps})
		}
	}
	// A strict total order: every sort algorithm yields this one result.
	slices.SortFunc(all, func(a, b draw) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if a.class != b.class {
			return a.class - b.class
		}
		return a.idx - b.idx
	})
	jobs := make([]job, len(all))
	for i, d := range all {
		jobs[i] = job{id: i, class: d.class, arrival: d.at, steps: d.steps, startedAt: -1, server: -1}
	}
	return jobs
}

// interarrival draws one gap from the class's arrival process.
func interarrival(rng *rand.Rand, cl Class) float64 {
	switch cl.Arrival {
	case ArrivalGamma:
		// Gamma with shape k and mean 1/rate: burstier than Poisson
		// for k < 1 (CV = 1/sqrt(k)).
		return gammaSample(rng, cl.GammaShape) / (cl.GammaShape * cl.RatePerS)
	default:
		return rng.ExpFloat64() / cl.RatePerS
	}
}

// gammaSample draws Gamma(shape, 1) via Marsaglia-Tsang, with the
// standard boost for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// deriveSeed gives each class an independent stream.
func deriveSeed(seed int64, class int) int64 {
	return int64(resil.Mix(uint64(seed)^0x5eed, uint64(class)) >> 1) // keep it positive for readability in dumps
}
