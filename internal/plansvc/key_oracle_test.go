package plansvc

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"
	"testing"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/partition"
)

// streamHasher is the service's former encoder, kept as the reference:
// every 8-byte word and string written straight into a streaming
// SHA-256.
type streamHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (w *streamHasher) u64(v uint64) {
	binary.BigEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *streamHasher) ints(vs ...int) {
	for _, v := range vs {
		w.u64(uint64(int64(v)))
	}
}

func (w *streamHasher) f64s(vs ...float64) {
	for _, v := range vs {
		w.u64(math.Float64bits(v))
	}
}

func (w *streamHasher) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			w.u64(1)
		} else {
			w.u64(0)
		}
	}
}

func (w *streamHasher) str(s string) {
	w.u64(uint64(len(s)))
	io.WriteString(w.h, s)
}

func (w *streamHasher) sum() Key {
	var k Key
	w.h.Sum(k[:0])
	return k
}

// streamKey is KeyOf as the streaming encoder computed it.
func streamKey(t *testing.T, opts core.Options) Key {
	t.Helper()
	norm, err := opts.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	norm.MIP = norm.MIP.Normalized(norm.Model.Layers)
	if norm.ProfileOptions.Repeats <= 0 {
		norm.ProfileOptions.Repeats = 3
	}
	w := &streamHasher{h: sha256.New()}
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
	w.ints(norm.MIP.MaxStages, 2, norm.MIP.NodeLimit, int(norm.MIP.TimeLimit))
	w.str("profile")
	w.ints(norm.ProfileOptions.Repeats)
	w.bools(norm.ProfileOptions.DisableSimilarity)
	return w.sum()
}

// streamFingerprint is Fingerprint as the streaming encoder computed it.
func streamFingerprint(p *core.Plan) string {
	w := &streamHasher{h: sha256.New()}
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

// TestKeyMatchesStreamingHash holds the one-buffer encoder to the
// streaming one it replaced: every plan key and plan fingerprint over
// the Table 3 models on Topo 2+2, 1+3 and 4+4 — MIP and balanced
// partitions, and the greedy floor with its fallback reason — must be
// byte-identical, so no persisted key or recorded fingerprint moves.
func TestKeyMatchesStreamingHash(t *testing.T) {
	if got, want := Fingerprint(nil), streamFingerprint(nil); got != want {
		t.Errorf("nil plan: fingerprint %s, streaming %s", got, want)
	}
	topos := []*hw.Topology{
		hw.Commodity(hw.RTX3090Ti, 2, 2),
		hw.Commodity(hw.RTX3090Ti, 1, 3),
		hw.Commodity(hw.RTX3090Ti, 4, 4),
	}
	for _, m := range model.Table3() {
		for _, topo := range topos {
			for _, algo := range []string{partition.AlgoMIP, partition.AlgoBalanced} {
				opts := core.Options{Model: m, Topology: topo, PartitionAlgo: algo}
				switch algo {
				case partition.AlgoMIP:
					// A short stage-count sweep keeps the solves cheap.
					opts.MIP.MaxStages = len(topo.GPUs) + 2
				case partition.AlgoBalanced:
					opts.BalancedStages = len(topo.GPUs)
				}
				name := m.Name + "/" + topo.Name + "/" + algo
				key, err := KeyOf(opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := streamKey(t, opts); key != want {
					t.Errorf("%s: key %s, streaming %s", name, key, want)
				}
				plan, err := core.PlanMobius(opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := Fingerprint(plan), streamFingerprint(plan); got != want {
					t.Errorf("%s: fingerprint %s, streaming %s", name, got, want)
				}
			}
			def := core.Options{Model: m, Topology: topo}
			if key, err := KeyOf(def); err != nil || key != streamKey(t, def) {
				t.Errorf("%s/%s default options: key %s (err %v), streaming %s", m.Name, topo.Name, key, err, streamKey(t, def))
			}
			floor, err := core.GreedyPlan(def, "oracle: greedy floor")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := Fingerprint(floor), streamFingerprint(floor); got != want {
				t.Errorf("%s/%s greedy floor: fingerprint %s, streaming %s", m.Name, topo.Name, got, want)
			}
		}
	}
}
