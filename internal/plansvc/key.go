// Package plansvc is a hardened planning service in front of the Mobius
// planner (core.PlanMobiusCtx). Each content key is planned by one cold
// solve that reads nothing else in the cache, so the plan a key gets
// does not depend on what was planned before it. Around that solve the
// service adds:
//
//   - a content-addressed plan cache keyed by a canonical hash of the
//     planning inputs, with Plan.Validate re-checked on every hit so a
//     corrupt or stale entry degrades to a recompute instead of serving
//     garbage. The cache is unbounded: a fine-tuning job plans a few
//     dozen keys, once;
//   - single-flight deduplication: N concurrent requests for the same
//     key cost one solve, and a leader whose own context dies hands the
//     key off to a waiter instead of poisoning it;
//   - a deadline-aware degradation ladder — validated hit, then a cold
//     MIP solve, then the deterministic greedy fallback — with a
//     circuit breaker that trips to greedy-only after repeated deadline
//     blowups and half-opens on a probe.
//
// The package's chaos test drives the ladder under -race with seeded
// requests whose deadline has already expired.
package plansvc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"mobius/internal/core"
)

// Key is the content address of a planning request: a SHA-256 over the
// canonical encoding of every input the plan is a function of.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Request is a canonicalized planning request: options with every
// planning default applied, plus the content key derived from them.
type Request struct {
	// Opts are the normalized options; two requests with equal keys have
	// semantically identical Opts.
	Opts core.Options
	// Key is the content address.
	Key Key
}

// NewRequest canonicalizes opts and computes its content key.
//
// The encoding is by construction independent of how the caller spelled
// the inputs: fields are hashed in a fixed order, defaults are applied
// first (core.Options.Normalized, partition.MIPOptions.Normalized), and
// floats are hashed as their IEEE-754 bits, so 13.1e9 and 13100000000.0
// address the same entry. Labels (model and topology names, GPU product
// names, prices) are excluded — content, not naming, addresses the
// cache. Also excluded is everything a plan provably does not depend
// on: Parallelism (plans are identical at every level), fault and
// integrity scenarios, checkpoint policy, the prefetch ablation flags
// (execution-time, not plan-time), the Planner itself, and the MIP
// cache control (DisableCache re-solves the same problem).
func NewRequest(opts core.Options) (*Request, error) {
	norm, err := opts.Normalized()
	if err != nil {
		return nil, err
	}
	norm.MIP = norm.MIP.Normalized(norm.Model.Layers)
	if norm.ProfileOptions.Repeats <= 0 {
		norm.ProfileOptions.Repeats = 3
	}

	w := newHasher()
	w.str("plansvc/v1")

	w.str("model")
	w.ints(norm.Model.Layers, norm.Model.Hidden, norm.Model.Heads,
		norm.Model.VocabSize, norm.Model.SeqLen, norm.Model.MicrobatchSize)

	topo := norm.Topology
	w.str("topo")
	w.ints(len(topo.GPUs))
	for _, g := range topo.GPUs {
		w.ints(g.RootComplex)
		w.f64s(g.Spec.MemBytes, g.Spec.FP16TFLOPS, g.Spec.Efficiency, g.Spec.LinkBW)
		w.bools(g.Spec.P2P)
	}
	w.ints(len(topo.RootComplexBW))
	w.f64s(topo.RootComplexBW...)
	w.f64s(topo.DRAMBW, topo.DRAMBytes, topo.NVLinkBW, topo.TransferLatency, topo.SSDBW, topo.SSDBytes)

	w.str("opts")
	w.ints(norm.Microbatches, norm.BalancedStages)
	w.str(norm.PartitionAlgo)
	w.str(norm.MappingScheme)

	w.str("mip")
	// The sweep's fixed patience, 2, keeps its old slot so stored keys stay bit for bit.
	w.ints(norm.MIP.MaxStages, 2, norm.MIP.NodeLimit, int(norm.MIP.TimeLimit))

	w.str("profile")
	w.ints(norm.ProfileOptions.Repeats)
	w.bools(norm.ProfileOptions.DisableSimilarity)

	return &Request{Opts: norm, Key: w.sum()}, nil
}

// KeyOf is NewRequest reduced to the key.
func KeyOf(opts core.Options) (Key, error) {
	req, err := NewRequest(opts)
	if err != nil {
		return Key{}, err
	}
	return req.Key, nil
}

// hasher is a canonical encoder: every field is appended to one buffer
// as big-endian 8-byte words (strings as their length, then their
// bytes), and sum hashes the buffer with one SHA-256.
type hasher struct {
	b []byte
}

// newHasher sizes the buffer so a request on up to 8 GPUs (about 700
// bytes) never grows it.
func newHasher() *hasher { return &hasher{b: make([]byte, 0, 1024)} }

func (w *hasher) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

func (w *hasher) ints(vs ...int) {
	for _, v := range vs {
		w.u64(uint64(int64(v)))
	}
}

func (w *hasher) f64s(vs ...float64) {
	for _, v := range vs {
		w.u64(math.Float64bits(v))
	}
}

func (w *hasher) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			w.u64(1)
		} else {
			w.u64(0)
		}
	}
}

func (w *hasher) str(s string) {
	w.u64(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *hasher) sum() Key { return sha256.Sum256(w.b) }

// Fingerprint hashes the deterministic content of a plan — partition
// stages, mapping, predicted step, fallback state — excluding the
// wall-clock measurements (CrossMapTime, MIPStats.SolveTime). Two plans
// with equal fingerprints are the same plan for every consumer of the
// service; determinism and chaos tests compare fingerprints across
// replays and concurrency levels.
func Fingerprint(p *core.Plan) string {
	w := newHasher()
	if p == nil {
		w.str("nil")
		k := w.sum()
		return k.String()
	}
	w.str(p.Partition.Algorithm)
	w.ints(len(p.Partition.Stages))
	for _, st := range p.Partition.Stages {
		w.ints(st.First, st.Last, st.Blocks)
		w.f64s(st.FwdTime, st.BwdTime, st.ParamBytes, st.GradBytes,
			st.ActInBytes, st.ActOutBytes, st.WorkingBytes)
	}
	w.ints(p.Mapping.NumStages)
	w.ints(p.Mapping.Perm...)
	w.f64s(p.PredictedStep)
	w.bools(p.Fallback)
	w.str(p.FallbackReason)
	k := w.sum()
	return k.String()
}
