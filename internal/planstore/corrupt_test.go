package planstore

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"mobius/internal/model"
)

// loadDir replays dir through a throwaway store and returns the result.
func loadDir(t testing.TB, dir string) ([]Entry, LoadReport) {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, rep, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return entries, rep
}

// writeRecord lands raw bytes under key's canonical filename.
func writeRecord(t testing.TB, dir string, key Key, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, key.String()+recordExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// frameRecord wraps a raw payload in a valid version-1 header for key, so
// a test can land a payload encodeRecord would never write.
func frameRecord(key Key, body []byte) []byte {
	rec := make([]byte, headerLen+len(body))
	copy(rec[0:8], recordMagic[:])
	binary.BigEndian.PutUint32(rec[8:12], recordVersion)
	copy(rec[12:44], key[:])
	binary.BigEndian.PutUint64(rec[44:52], uint64(len(body)))
	sum := sha256.Sum256(body)
	copy(rec[52:84], sum[:])
	copy(rec[headerLen:], body)
	return rec
}

// TestLoadTruncatedAtEveryByte truncates a record at every byte offset:
// the replay must never panic, never load the truncated record, and
// always quarantine exactly it. Failing fast is part of the contract —
// the header's length field disagrees with the file size long before a
// checksum is computed.
func TestLoadTruncatedAtEveryByte(t *testing.T) {
	e := testEntry(t, model.GPT3B, "truncate-sweep")
	rec, err := encodeRecord(e)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 97
	}
	root := t.TempDir()
	for cut := 0; cut < len(rec); cut += step {
		dir, err := os.MkdirTemp(root, "cut")
		if err != nil {
			t.Fatal(err)
		}
		writeRecord(t, dir, e.Key, rec[:cut])
		entries, rep := loadDir(t, dir)
		if len(entries) != 0 || rep.Entries != 0 {
			t.Fatalf("cut at %d: a truncated record loaded", cut)
		}
		if rep.Quarantined != 1 {
			t.Fatalf("cut at %d: quarantined %d, want 1", cut, rep.Quarantined)
		}
		os.RemoveAll(dir)
	}
	// The full record, untouched, loads.
	dir := t.TempDir()
	writeRecord(t, dir, e.Key, rec)
	entries, rep := loadDir(t, dir)
	if len(entries) != 1 || rep.Quarantined != 0 {
		t.Fatalf("intact record: %+v", rep)
	}
}

// TestLoadBitFlipAtEveryByte flips one bit in every byte of a record:
// magic, version, key, length, checksum or payload — any single flipped
// bit must quarantine the record, never load it, never panic. (A version
// flip counts as stale; everything else as corruption.)
func TestLoadBitFlipAtEveryByte(t *testing.T) {
	e := testEntry(t, model.GPT3B, "bitflip-sweep")
	rec, err := encodeRecord(e)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 131
	}
	root := t.TempDir()
	flipped := make([]byte, len(rec))
	for pos := 0; pos < len(rec); pos += step {
		dir, err := os.MkdirTemp(root, "flip")
		if err != nil {
			t.Fatal(err)
		}
		copy(flipped, rec)
		flipped[pos] ^= 1 << (pos % 8)
		writeRecord(t, dir, e.Key, flipped)
		entries, rep := loadDir(t, dir)
		if len(entries) != 0 {
			t.Fatalf("flip at %d: a corrupted record loaded", pos)
		}
		if rep.Quarantined != 1 {
			t.Fatalf("flip at %d: quarantined %d, want 1", pos, rep.Quarantined)
		}
		os.RemoveAll(dir)
	}
}

// TestLoadKeepsValidatedSiblings: corruption destroys only its own
// record — every intact entry written before the damage still loads.
func TestLoadKeepsValidatedSiblings(t *testing.T) {
	dir := t.TempDir()
	var want []Key
	for _, l := range []string{"s1", "s2", "s3"} {
		e := testEntry(t, model.GPT3B, l)
		rec, err := encodeRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		writeRecord(t, dir, e.Key, rec)
		want = append(want, e.Key)
	}
	bad := testEntry(t, model.GPT3B, "victim")
	rec, err := encodeRecord(bad)
	if err != nil {
		t.Fatal(err)
	}
	writeRecord(t, dir, bad.Key, rec[:len(rec)/2])

	entries, rep := loadDir(t, dir)
	if rep.Entries != 3 || rep.Quarantined != 1 {
		t.Fatalf("load %+v, want 3 intact entries and 1 quarantine", rep)
	}
	got := map[Key]bool{}
	for _, e := range entries {
		got[e.Key] = true
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("intact entry %s lost to a sibling's corruption", k)
		}
	}
}

// TestLoadQuarantineZoo walks the failure taxonomy in one directory:
// truncation, stale version, key mismatch, garbage JSON behind a valid
// checksum, a semantically invalid plan, and an empty file — each
// quarantined under the right counter, alongside one intact survivor.
func TestLoadQuarantineZoo(t *testing.T) {
	dir := t.TempDir()
	good := testEntry(t, model.GPT3B, "zoo-good")
	goodRec, err := encodeRecord(good)
	if err != nil {
		t.Fatal(err)
	}
	writeRecord(t, dir, good.Key, goodRec)

	// Empty file.
	writeRecord(t, dir, testKey("zoo-empty"), nil)

	// Header-only truncation.
	writeRecord(t, dir, testKey("zoo-header"), goodRec[:headerLen])

	// Stale version: rewrite the version field and patch nothing else —
	// structurally sound, just from another era.
	stale := testEntry(t, model.GPT3B, "zoo-stale")
	staleRec, err := encodeRecord(stale)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(staleRec[8:12], recordVersion+1)
	writeRecord(t, dir, stale.Key, staleRec)

	// Key mismatch: an intact record filed under the wrong name.
	writeRecord(t, dir, testKey("zoo-misnamed"), goodRec)

	// Garbage JSON with a correct checksum: the header lies about
	// nothing, the payload is just not a plan.
	k := testKey("zoo-json")
	writeRecord(t, dir, k, frameRecord(k, []byte(`{"topology": "not an object"}`)))

	// Semantically invalid: a well-formed record whose plan does not
	// validate against its persisted topology (wrong machine size).
	invalid := testEntry(t, model.GPT3B, "zoo-invalid")
	smaller := *invalid.Topology
	smaller.GPUs = invalid.Topology.GPUs[:1]
	invalid.Topology = &smaller
	invalidRec, err := encodeRecord(invalid)
	if err != nil {
		t.Fatal(err)
	}
	writeRecord(t, dir, invalid.Key, invalidRec)

	entries, rep := loadDir(t, dir)
	if rep.Entries != 1 || len(entries) != 1 || entries[0].Key != good.Key {
		t.Fatalf("load %+v: only the intact record should survive", rep)
	}
	if rep.Quarantined != 6 {
		t.Errorf("quarantined %d, want 6", rep.Quarantined)
	}
	if rep.Stale != 1 {
		t.Errorf("stale %d, want 1", rep.Stale)
	}
	if rep.Invalid != 1 {
		t.Errorf("invalid %d, want 1", rep.Invalid)
	}
	// Every quarantined file was renamed aside; a second replay is clean.
	_, rep2 := loadDir(t, dir)
	if rep2.Entries != 1 || rep2.Quarantined != 0 {
		t.Fatalf("second load %+v: quarantine must stick", rep2)
	}
}

// TestQuarantineNameCollisions: repeated damage to the same key gets
// numbered quarantine files, never an overwrite of earlier evidence.
func TestQuarantineNameCollisions(t *testing.T) {
	dir := t.TempDir()
	k := testKey("collide")
	for i := 0; i < 3; i++ {
		writeRecord(t, dir, k, []byte("junk"))
		_, rep := loadDir(t, dir)
		if rep.Quarantined != 1 {
			t.Fatalf("round %d: quarantined %d, want 1", i, rep.Quarantined)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("%d quarantine file(s), want 3 distinct", len(ents))
	}
}
