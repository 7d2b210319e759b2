package planstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mobius/internal/core"
	"mobius/internal/hw"
	"mobius/internal/mapping"
	"mobius/internal/partition"
	"mobius/internal/profile"
)

// Key is the content-addressed record key: the canonical SHA-256 plan
// key derived by internal/plansvc. The store never recomputes it — it
// only verifies that a record on disk carries the key its filename
// claims.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the on-disk file basename.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Entry is one persisted plan: the key it is cached under, the plan
// itself, and the topology it was planned for (hits re-validate against
// it).
type Entry struct {
	Key      Key
	Plan     *core.Plan
	Topology *hw.Topology
}

// Record layout, version 1:
//
//	offset  size  field
//	0       8     magic "MOBPLAN1"
//	8       4     version (big-endian uint32)
//	12      32    key (raw SHA-256 plan key)
//	44      8     payload length (big-endian uint64)
//	52      32    SHA-256 of the payload
//	84      n     payload (JSON, see payload below)
//
// The payload checksum covers every byte after the header; the header
// itself is validated structurally (magic, version, key == filename
// key, length == remaining file size), so any single corrupted byte —
// header or payload — fails decoding and the record quarantines instead
// of loading.
const (
	recordVersion = 1
	headerLen     = 8 + 4 + sha256.Size + 8 + sha256.Size
	// maxRecordBytes bounds a record file; anything larger is corrupt by
	// definition (a real plan payload is tens of kilobytes).
	maxRecordBytes = 64 << 20
)

var recordMagic = [8]byte{'M', 'O', 'B', 'P', 'L', 'A', 'N', '1'}

// payload is the JSON body of a record. It carries the full plan —
// profile, partition, mapping, solver stats — not the summary wire
// form: a loaded entry must serve exactly like the entry that was
// persisted (warm hits, step pricing). Records written with the retired
// model_sig key, or with the retired MIPStats WarmStart/WarmWon fields,
// still decode: json.Unmarshal skips keys the struct does not declare.
type payload struct {
	Topology      *hw.Topology         `json:"topology"`
	Profile       *profile.Profile     `json:"profile"`
	Partition     *partition.Partition `json:"partition"`
	Mapping       *mapping.Mapping     `json:"mapping"`
	MIPStats      *partition.MIPStats  `json:"mip_stats,omitempty"`
	PredictedStep float64              `json:"predicted_step_s"`
}

// encodeRecord serializes an entry into the versioned, checksummed
// record format. Fallback plans are the caller's to reject — the store
// persists only cacheable plans, mirroring the in-memory cache.
func encodeRecord(e Entry) ([]byte, error) {
	if e.Plan == nil || e.Plan.Profile == nil || e.Plan.Partition == nil || e.Plan.Mapping == nil {
		return nil, fmt.Errorf("planstore: incomplete plan for %s", e.Key)
	}
	body, err := json.Marshal(payload{
		Topology:      e.Topology,
		Profile:       e.Plan.Profile,
		Partition:     e.Plan.Partition,
		Mapping:       e.Plan.Mapping,
		MIPStats:      e.Plan.MIPStats,
		PredictedStep: e.Plan.PredictedStep,
	})
	if err != nil {
		return nil, fmt.Errorf("planstore: encode %s: %w", e.Key, err)
	}
	rec := make([]byte, headerLen+len(body))
	copy(rec[0:8], recordMagic[:])
	binary.BigEndian.PutUint32(rec[8:12], recordVersion)
	copy(rec[12:44], e.Key[:])
	binary.BigEndian.PutUint64(rec[44:52], uint64(len(body)))
	sum := sha256.Sum256(body)
	copy(rec[52:84], sum[:])
	copy(rec[headerLen:], body)
	return rec, nil
}

// errStale marks a structurally-sound record written by a different
// format version; Load counts these separately from corruption.
type errStale struct{ version uint32 }

func (e errStale) Error() string {
	return fmt.Sprintf("planstore: record version %d, want %d", e.version, recordVersion)
}

// decodeRecord parses and verifies one record. wantKey is the key the
// filename claims; a mismatch (bit-flipped header, misnamed file) is
// corruption. The returned entry's plan has been rebuilt — including
// the profile's layer handles, which JSON cannot carry — but not yet
// validated against its topology; Load runs Plan.Validate on top.
func decodeRecord(data []byte, wantKey Key) (Entry, error) {
	var e Entry
	if len(data) < headerLen {
		return e, fmt.Errorf("planstore: truncated record: %d bytes, header needs %d", len(data), headerLen)
	}
	if !bytes.Equal(data[0:8], recordMagic[:]) {
		return e, fmt.Errorf("planstore: bad magic %q", data[0:8])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != recordVersion {
		return e, errStale{version: v}
	}
	copy(e.Key[:], data[12:44])
	if e.Key != wantKey {
		return e, fmt.Errorf("planstore: record key %s does not match filename key %s", e.Key, wantKey)
	}
	n := binary.BigEndian.Uint64(data[44:52])
	if n != uint64(len(data)-headerLen) {
		return e, fmt.Errorf("planstore: payload length %d, file holds %d", n, len(data)-headerLen)
	}
	sum := sha256.Sum256(data[headerLen:])
	if !bytes.Equal(sum[:], data[52:84]) {
		return e, fmt.Errorf("planstore: payload checksum mismatch")
	}
	var p payload
	if err := json.Unmarshal(data[headerLen:], &p); err != nil {
		return e, fmt.Errorf("planstore: decode payload: %w", err)
	}
	if p.Topology == nil || p.Profile == nil || p.Partition == nil || p.Mapping == nil {
		return e, fmt.Errorf("planstore: payload missing plan components")
	}
	// model.Layer carries an unexported model handle JSON cannot round-
	// trip; rebuild the layer sequence from the profiled model config.
	seq := p.Profile.Model.LayerSeq()
	if len(seq) != len(p.Profile.Layers) {
		return e, fmt.Errorf("planstore: profile holds %d layers, model %q has %d", len(p.Profile.Layers), p.Profile.Model.Name, len(seq))
	}
	for i := range seq {
		p.Profile.Layers[i].Layer = seq[i]
	}
	e.Topology = p.Topology
	e.Plan = &core.Plan{
		Profile:       p.Profile,
		Partition:     p.Partition,
		Mapping:       p.Mapping,
		MIPStats:      p.MIPStats,
		PredictedStep: p.PredictedStep,
	}
	return e, nil
}
