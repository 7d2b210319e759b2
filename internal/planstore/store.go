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
package planstore

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Config tunes a Store.
type Config struct {
	// Dir is the store directory; Open creates it.
	Dir string
}

// queueDepth bounds the write-behind queue. Puts arriving at a full
// queue are dropped and counted (WriteDrops); deletes always enqueue —
// dropping one would let a restart resurrect an entry the cache already
// evicted.
const queueDepth = 256

// Metrics counts what the store did. Counters are cumulative since
// Open; a snapshot is taken under the store lock.
type Metrics struct {
	// Persisted counts records written all the way through temp+rename;
	// Deletes counts completed removals.
	Persisted uint64 `json:"persisted"`
	Deletes   uint64 `json:"deletes"`
	// WriteDrops counts puts dropped at a full queue.
	WriteDrops uint64 `json:"write_drops"`
	// IOErrors counts filesystem errors the worker survived.
	IOErrors uint64 `json:"io_errors"`
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
}

// Store is the crash-safe plan store. All methods are safe for
// concurrent use; Put and Delete are non-blocking (queue semantics
// above), Flush and Close drain.
type Store struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []storeOp
	closed bool
	idle   bool
	m      Metrics

	workerDone chan struct{}
}

// Open creates the directory if needed and starts the write-behind
// worker.
func Open(cfg Config) (*Store, error) {
	s, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	go s.worker()
	return s, nil
}

// newStore is Open without the worker: operations queue up until a
// worker is started.
func newStore(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("planstore: a directory is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	s := &Store{cfg: cfg, workerDone: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
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
	if len(s.queue) >= queueDepth {
		s.m.WriteDrops++
		return
	}
	s.queue = append(s.queue, storeOp{kind: opPut, e: e})
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
	s.queue = append(s.queue, storeOp{kind: opDelete, e: Entry{Key: k}})
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

// process executes one drained operation.
func (s *Store) process(op storeOp) {
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

// keyFromName parses `<64 hex chars>.plan` back into a Key. Only the
// lowercase spelling Key.String writes names a record: hex.Decode also
// accepts uppercase, so the name must round-trip.
func keyFromName(name string) (Key, bool) {
	var k Key
	base := strings.TrimSuffix(name, recordExt)
	if len(base) != 2*len(k) {
		return k, false
	}
	if _, err := hex.Decode(k[:], []byte(base)); err != nil || k.String() != base {
		return k, false
	}
	return k, true
}
