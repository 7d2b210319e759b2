// Package planstore is the crash-safe, content-addressed on-disk plan
// store behind the internal/plansvc cache. One entry is one file,
// `<keyhex>.plan`, holding a checksummed, versioned record (see
// record.go). Writes go through a bounded write-behind queue drained by
// one worker goroutine: the hot planning path never blocks on the disk,
// and a full queue drops the put (counted) rather than stalling —
// persistence is an optimization, the in-memory cache stays the source
// of truth. Completed writes are atomic (temp file + rename into
// place), so a crash leaves either the old record or the new one, never
// a hybrid.
//
// Loading replays the directory: every record is structurally verified
// (magic, version, key, length, payload SHA-256), decoded, and its plan
// re-validated against its topology. Anything that fails — truncated,
// torn, bit-flipped, stale-version, or semantically invalid records —
// is quarantined (renamed aside and counted), never fatal: a damaged
// store degrades toward a cold start one entry at a time.
//
// Fault injection: a fault.Spec's store_faults clauses inject clean
// write failures, torn writes at a byte offset, and device latency into
// the worker, decided by the same seed-driven splitmix hash
// (resil.Hash01) as every other clause — per (seed, rule, key,
// operation sequence), so a scenario replays bitwise.
package planstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mobius/internal/fault"
)

// Config tunes a Store.
type Config struct {
	// Dir is the store directory; Open creates it.
	Dir string
	// QueueDepth bounds the write-behind queue (default 256). Puts
	// arriving at a full queue are dropped and counted (WriteDrops);
	// deletes always enqueue — dropping one would let a restart
	// resurrect an entry the cache already evicted.
	QueueDepth int
	// Faults injects store I/O faults via its store_faults clauses
	// (fault.Spec.StoreOp); nil injects nothing.
	Faults *fault.Spec
	// Sleep absorbs injected device latency (default time.Sleep); the
	// chaos harness substitutes a recorder so latency clauses stay
	// deterministic in wall-clock-free tests.
	Sleep func(d time.Duration)
}

// Metrics counts what the store did. Counters are cumulative since
// Open; a snapshot is taken under the store lock.
type Metrics struct {
	// Persisted counts records written all the way through temp+rename;
	// Deletes counts completed removals.
	Persisted uint64 `json:"persisted"`
	Deletes   uint64 `json:"deletes"`
	// WriteDrops counts puts dropped at a full queue.
	WriteDrops uint64 `json:"write_drops"`
	// InjectedFailures counts operations failed cleanly by store_faults;
	// TornWrites counts injected torn writes (a partial record reached
	// the final path).
	InjectedFailures uint64 `json:"injected_failures"`
	TornWrites       uint64 `json:"torn_writes"`
	// IOErrors counts real filesystem errors the worker survived.
	IOErrors uint64 `json:"io_errors"`
	// InjectedLatencyS is the total injected device latency.
	InjectedLatencyS float64 `json:"injected_latency_s"`
	// QueueDepth is the write-behind backlog at snapshot time.
	QueueDepth int `json:"queue_depth"`

	// Load-side counters, from the last Load call: entries recovered,
	// records quarantined (with the stale-version and failed-validation
	// breakdowns counted inside the total).
	LoadedEntries      uint64 `json:"loaded_entries"`
	QuarantinedRecords uint64 `json:"quarantined_records"`
	StaleRecords       uint64 `json:"stale_records"`
	InvalidRecords     uint64 `json:"invalid_records"`
}

// LoadReport summarizes one directory replay.
type LoadReport struct {
	// Entries is the count of records recovered and validated.
	Entries int
	// Quarantined counts records moved aside: corrupt, truncated, torn,
	// stale-version (Stale) or failing Plan.Validate (Invalid). Stale
	// and Invalid are included in Quarantined.
	Quarantined int
	Stale       int
	Invalid     int
}

func (r LoadReport) String() string {
	return fmt.Sprintf("planstore: %d entr(ies) loaded, %d quarantined (%d stale, %d invalid)",
		r.Entries, r.Quarantined, r.Stale, r.Invalid)
}

type opKind int

const (
	opPut opKind = iota
	opDelete
)

type storeOp struct {
	kind opKind
	e    Entry
	seq  uint64
}

// Store is the crash-safe plan store. All methods are safe for
// concurrent use; Put and Delete are non-blocking (queue semantics
// above), Flush and Close drain.
type Store struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []storeOp
	seq    uint64
	closed bool
	idle   bool
	m      Metrics

	workerDone chan struct{}
}

// Open creates the directory if needed and starts the write-behind
// worker.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("planstore: a directory is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	s := &Store{cfg: cfg, workerDone: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.worker()
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// Put enqueues a record write. It never blocks: at a full queue the put
// is dropped and counted, and the entry simply is not persisted (the
// in-memory cache still holds it).
func (s *Store) Put(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.m.WriteDrops++
		return
	}
	s.queue = append(s.queue, storeOp{kind: opPut, e: e, seq: s.seq})
	s.seq++
	s.cond.Broadcast()
}

// Delete enqueues a record removal. Deletes are exempt from the queue
// bound — eviction coherence must hold, or a restart would resurrect an
// entry the cache aged out.
func (s *Store) Delete(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.queue = append(s.queue, storeOp{kind: opDelete, e: Entry{Key: k}, seq: s.seq})
	s.seq++
	s.cond.Broadcast()
}

// Flush blocks until the write-behind queue has drained and the worker
// is idle.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 || !s.idle {
		s.cond.Wait()
	}
}

// Close drains the queue and stops the worker. The store rejects
// operations afterwards; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.workerDone
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.workerDone
	return nil
}

// Metrics returns a consistent snapshot of the counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m
	m.QueueDepth = len(s.queue)
	return m
}

// worker drains the queue one operation at a time, in enqueue order —
// FIFO per key, so a put followed by a delete (or an overwrite) settles
// in cache order.
func (s *Store) worker() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.idle = true
			s.cond.Broadcast()
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.idle = true
			s.cond.Broadcast()
			s.mu.Unlock()
			close(s.workerDone)
			return
		}
		op := s.queue[0]
		s.queue = s.queue[1:]
		s.idle = false
		s.mu.Unlock()
		s.process(op)
	}
}

// process executes one drained operation, injected faults first.
func (s *Store) process(op storeOp) {
	opName := fault.StoreOpPut
	if op.kind == opDelete {
		opName = fault.StoreOpDelete
	}
	d := s.cfg.Faults.StoreOp(opName, keyHash(op.e.Key), op.seq)
	if d.LatencyS > 0 {
		s.count(func(m *Metrics) { m.InjectedLatencyS += d.LatencyS })
		s.cfg.Sleep(time.Duration(d.LatencyS * float64(time.Second)))
	}
	if d.Fail {
		s.count(func(m *Metrics) { m.InjectedFailures++ })
		return
	}
	path := filepath.Join(s.cfg.Dir, op.e.Key.String()+recordExt)
	switch op.kind {
	case opDelete:
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			s.count(func(m *Metrics) { m.IOErrors++ })
			return
		}
		s.count(func(m *Metrics) { m.Deletes++ })
	case opPut:
		rec, err := encodeRecord(op.e)
		if err != nil {
			s.count(func(m *Metrics) { m.IOErrors++ })
			return
		}
		if d.Torn {
			// A torn write bypasses the temp+rename protocol — it models
			// the crash that protocol cannot save you from (overwrite in
			// place, partial page flush): a prefix of the record lands on
			// the final path, destroying any intact predecessor.
			tear := d.TornAtByte
			if tear <= 0 || tear >= len(rec) {
				tear = 1 + int(d.TornHash*float64(len(rec)-1))
			}
			if err := os.WriteFile(path, rec[:tear], 0o644); err != nil {
				s.count(func(m *Metrics) { m.IOErrors++ })
				return
			}
			s.count(func(m *Metrics) { m.TornWrites++ })
			return
		}
		if err := atomicWrite(path, rec); err != nil {
			s.count(func(m *Metrics) { m.IOErrors++ })
			return
		}
		s.count(func(m *Metrics) { m.Persisted++ })
	}
}

func (s *Store) count(f func(*Metrics)) {
	s.mu.Lock()
	f(&s.m)
	s.mu.Unlock()
}

// atomicWrite lands data on path via a temp file in the same directory
// and a rename — the atomicity protocol: readers (and a future Load)
// see either the old complete record or the new one.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

const (
	recordExt     = ".plan"
	quarantineExt = ".quarantined"
)

// Load replays the store directory in sorted filename order: every
// record is verified, decoded and its plan re-validated; records that
// fail anywhere are quarantined in place (renamed aside) and counted,
// never fatal. The returned error covers directory-level failures only
// — an unreadable record never aborts the replay.
func (s *Store) Load() ([]Entry, LoadReport, error) {
	var rep LoadReport
	dirents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, rep, fmt.Errorf("planstore: %w", err)
	}
	names := make([]string, 0, len(dirents))
	for _, de := range dirents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), recordExt) {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)

	var entries []Entry
	for _, name := range names {
		path := filepath.Join(s.cfg.Dir, name)
		key, ok := keyFromName(name)
		if !ok {
			s.quarantine(path, &rep, nil)
			continue
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() > maxRecordBytes {
			s.quarantine(path, &rep, nil)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.quarantine(path, &rep, nil)
			continue
		}
		e, err := decodeRecord(data, key)
		if err != nil {
			s.quarantine(path, &rep, err)
			continue
		}
		if err := e.Plan.Validate(e.Topology); err != nil {
			rep.Invalid++
			s.quarantine(path, &rep, nil)
			continue
		}
		entries = append(entries, e)
		rep.Entries++
	}
	s.mu.Lock()
	s.m.LoadedEntries = uint64(rep.Entries)
	s.m.QuarantinedRecords = uint64(rep.Quarantined)
	s.m.StaleRecords = uint64(rep.Stale)
	s.m.InvalidRecords = uint64(rep.Invalid)
	s.mu.Unlock()
	return entries, rep, nil
}

// quarantine moves a damaged record aside so subsequent loads skip it;
// when even the rename fails the file is left where it is and only
// counted — quarantining is best-effort, never fatal.
func (s *Store) quarantine(path string, rep *LoadReport, cause error) {
	rep.Quarantined++
	if _, ok := cause.(errStale); ok {
		rep.Stale++
	}
	dst := path + quarantineExt
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", path, quarantineExt, i)
	}
	_ = os.Rename(path, dst)
}

// keyFromName parses `<64 hex chars>.plan` back into a Key.
func keyFromName(name string) (Key, bool) {
	var k Key
	base := strings.TrimSuffix(name, recordExt)
	if len(base) != 2*len(k) {
		return k, false
	}
	for i := 0; i < len(k); i++ {
		hi, ok1 := hexVal(base[2*i])
		lo, ok2 := hexVal(base[2*i+1])
		if !ok1 || !ok2 {
			return k, false
		}
		k[i] = hi<<4 | lo
	}
	return k, true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// keyHash folds a key into the 64-bit hash the fault-decision stream is
// salted with (FNV-1a over the raw key bytes).
func keyHash(k Key) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range k {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
