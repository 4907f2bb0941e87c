package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// File names inside a cache directory.
const (
	journalFile  = "journal.zpj"
	snapshotFile = "snapshot.json"
	tmpSuffix    = ".tmp"
)

// compactThreshold is the journal size (bytes) past which a batch
// boundary triggers compaction into the snapshot.
const compactThreshold = 256 << 10

// Store is the crash-safe measurement cache: a snapshot plus an
// append-only journal inside one cache directory. It implements
// engine.PersistHook, so attaching it to an engine journals every
// newly executed result and pre-warms the engine's cache with the
// results of prior runs under the same fingerprint.
//
// Keys are the engine's canonical experiment keys; a generation
// counter separates independent re-measurement rounds (the stage-4
// characterization runs). Within one generation every key holds at
// most one result.
//
// A store is its directory's only writer: callers hold LockDir for as
// long as the store is open, so no other process appends to the
// journal or rewrites the snapshot underneath it.
type Store struct {
	dir         string
	fingerprint string

	mu      sync.Mutex
	journal *os.File
	// records holds the merged snapshot+journal state.
	records recordSet
	// journalBytes tracks the journal size for the compaction
	// threshold.
	journalBytes int64
	// dirty marks journal records not yet compacted into the
	// snapshot.
	dirty bool
	// log, if non-nil, receives one-line notices (invalidated stale
	// state, torn journal tails, write failures); see SetLog.
	log func(format string, args ...any)
	// pending holds the notices of Open until SetLog delivers
	// them: no caller can set a log before Open returns.
	pending []string
}

var _ engine.PersistHook = (*Store)(nil)

// Open opens (or creates) the cache directory and recovers its state.
// A journal or snapshot written under a different fingerprint or a
// damaged header is invalidated: the store logs the reason and starts
// fresh, because cached measurements from another configuration are
// worse than no cache. Torn journal tails are truncated and the valid
// prefix is kept.
func Open(dir, fingerprint string) (*Store, error) {
	st, err := loadState(dir, fingerprint)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fingerprint: fingerprint, records: st.records}
	for _, f := range st.stale {
		s.pending = append(s.pending, fmt.Sprintf("persist: discarding %s: %v", filepath.Base(f.path), f.err))
		if err := os.Remove(f.path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	var good int64
	if j := st.journal; j != nil {
		if j.TornBytes > 0 {
			s.pending = append(s.pending, fmt.Sprintf("persist: ignoring %d torn byte(s) in %s after crash", j.TornBytes, journalFile))
		}
		s.dirty = len(j.Records) > 0
		good = j.GoodSize
	}

	// Open the journal for appending, truncated to its valid prefix (or
	// freshly created with a header frame).
	if s.journal, err = os.OpenFile(filepath.Join(dir, journalFile), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return nil, err
	}
	if good > 0 {
		if err = s.journal.Truncate(good); err == nil {
			_, err = s.journal.Seek(good, 0)
		}
		s.journalBytes = good
	} else {
		err = s.resetJournal()
	}
	if err != nil {
		s.journal.Close()
		return nil, err
	}
	return s, nil
}

// isStale classifies recovery errors that invalidate (rather than
// abort on) persisted state.
func isStale(err error) bool {
	return errors.Is(err, ErrFingerprintMismatch) || errors.Is(err, ErrCorrupt)
}

// SetLog routes the store's one-line notices to log, first delivering
// the ones Open recorded while recovering the directory.
func (s *Store) SetLog(log func(format string, args ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = log
	for _, n := range s.pending {
		s.logf("%s", n)
	}
	s.pending = nil
}

func (s *Store) logf(format string, args ...any) {
	if s.log != nil {
		s.log(format, args...)
	}
}

// recordSet is the merged persisted state: gen -> key -> record.
type recordSet map[uint64]map[string]Record

// insert merges one record (last write wins; identical keys within a
// generation hold identical results by construction).
func (rs recordSet) insert(r Record) {
	g, ok := rs[r.Gen]
	if !ok {
		g = make(map[string]Record)
		rs[r.Gen] = g
	}
	g[r.Key] = r
}

// sorted flattens the set in (gen, key) order, for stable snapshots.
func (rs recordSet) sorted() []Record {
	gens := make([]uint64, 0, len(rs))
	n := 0
	for g, recs := range rs {
		gens = append(gens, g)
		n += len(recs)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	out := make([]Record, 0, n)
	for _, g := range gens {
		keys := make([]string, 0, len(rs[g]))
		for k := range rs[g] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, rs[g][k])
		}
	}
	return out
}

// Record implements engine.PersistHook: append the newly executed
// result to the journal. The write reaches the kernel before Record
// returns, so a subsequent process death cannot lose it; fsync
// happens at batch boundaries (and Close) to additionally survive
// machine crashes.
func (s *Store) Record(gen uint64, key string, r engine.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := Record{Gen: gen, Key: key, Result: r}
	s.records.insert(rec)
	if s.journal == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		s.logf("persist: journal encode: %v", err)
		return
	}
	before := s.journalBytes
	if err := appendFrame(s.journal, payload); err != nil {
		s.logf("persist: journal append: %v", err)
		// Roll back to a clean frame boundary so one failed write
		// does not poison subsequent appends.
		if terr := s.journal.Truncate(before); terr == nil {
			_, _ = s.journal.Seek(before, 0)
		}
		return
	}
	s.journalBytes += int64(frameOverhead + len(payload))
	s.dirty = true
}

// Generation implements engine.PersistHook: the stored results of one
// generation, for cache warm-up.
func (s *Store) Generation(gen uint64) map[string]engine.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]engine.Result, len(s.records[gen]))
	for k, r := range s.records[gen] {
		out[k] = r.Result
	}
	return out
}

// BatchEnd implements engine.PersistHook: a batch boundary. The
// journal is fsynced, and compacted into the snapshot once it grows
// past the threshold.
func (s *Store) BatchEnd() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return
	}
	_ = s.journal.Sync()
	if s.journalBytes >= compactThreshold {
		if err := s.compactLocked(); err != nil {
			s.logf("persist: compaction: %v", err)
		}
	}
}

// compactLocked writes the full in-memory state into the snapshot
// atomically (write temp, fsync, rename), then resets the journal to
// just its header. A crash between the rename and the reset leaves
// records present in both files; recovery merges them idempotently.
func (s *Store) compactLocked() error {
	if !s.dirty {
		return nil
	}
	if err := WriteDocument(filepath.Join(s.dir, snapshotFile), s.fingerprint, s.records.sorted()); err != nil {
		return err
	}
	if s.journal == nil {
		s.dirty = false
		return nil
	}
	if err := s.resetJournal(); err != nil {
		return err
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// resetJournal truncates the journal to its header frame.
func (s *Store) resetJournal() error {
	hdr, err := encodeHeaderFrame(s.fingerprint)
	if err != nil {
		return err
	}
	if err := s.journal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.journal.Seek(0, 0); err != nil {
		return err
	}
	if _, err := s.journal.Write(hdr); err != nil {
		return err
	}
	s.journalBytes = int64(len(hdr))
	return nil
}

// loadedState is what loadState recovers from a cache directory.
type loadedState struct {
	records recordSet
	// journal is the journal if it passed validation, with its valid
	// prefix and torn tail; nil when it was stale.
	journal *RecoveredJournal
	// stale are the files that failed validation (ErrCorrupt or
	// ErrFingerprintMismatch), in reading order; none of their
	// records are in records.
	stale []staleFile
}

type staleFile struct {
	path string
	err  error
}

// reject records a file that failed to load: a stale one (ErrCorrupt,
// ErrFingerprintMismatch) joins st.stale, any other error aborts the
// load.
func (st *loadedState) reject(path string, err error) error {
	if !isStale(err) {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	st.stale = append(st.stale, staleFile{path, err})
	return nil
}

// loadState reads the snapshot (the compacted history) and then the
// journal (records since the last compaction) of dir, journal records
// winning. Either file may be missing. A stale file is left for Open
// to discard; other I/O errors abort.
func loadState(dir, fingerprint string) (*loadedState, error) {
	if fingerprint == "" {
		return nil, fmt.Errorf("persist: empty fingerprint")
	}
	st := &loadedState{records: make(recordSet)}
	path := filepath.Join(dir, snapshotFile)
	var recs []Record
	_, err := ReadDocument(path, fingerprint, &recs)
	for i := 0; err == nil && i < len(recs); i++ {
		if recs[i].Key == "" {
			err = fmt.Errorf("%w: snapshot record with empty key", ErrCorrupt)
		}
	}
	if err == nil {
		for _, r := range recs {
			st.records.insert(r)
		}
	} else if err := st.reject(path, err); err != nil {
		return nil, err
	}
	path = filepath.Join(dir, journalFile)
	rec, err := ReadJournal(path, fingerprint)
	if err != nil {
		if err := st.reject(path, err); err != nil {
			return nil, err
		}
		return st, nil
	}
	for _, r := range rec.Records {
		st.records.insert(r)
	}
	st.journal = rec
	return st, nil
}

// Close compacts outstanding journal records into the snapshot and
// closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.compactLocked()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.journal = nil
	return err
}

// RecordCount returns the total number of stored results across all
// generations.
func (s *Store) RecordCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, g := range s.records {
		n += len(g)
	}
	return n
}

// Attach wires the store into an engine: future executed results are
// journaled, the engine's cache is pre-warmed with the stored results
// of its current generation, and — when the processor supports it —
// per-kernel execution counts are restored so the noise RNG
// derivation of re-executed experiments continues exactly where the
// interrupted process left off (the condition for byte-identical
// resumed runs).
func (s *Store) Attach(eng *engine.Engine) error {
	eng.Persist = s
	if err := s.restoreExecCounts(eng); err != nil {
		return err
	}
	eng.WarmCache(s.Generation(eng.CacheGeneration()))
	return nil
}

// restoreExecCounts tells the processor how many times each journaled
// kernel was executed by prior runs. Each stored result carries its
// own successful-execution total in Result.Runs (the adaptive engine
// may escalate past Reps), so the count is the sum of Runs across the
// generations holding the key.
func (s *Store) restoreExecCounts(eng *engine.Engine) error {
	rest, ok := eng.P.(engine.ExecCountRestorer)
	if !ok {
		return nil
	}
	s.mu.Lock()
	counts := make(map[string]uint64)
	for _, g := range s.records {
		for key, r := range g {
			counts[key] += uint64(r.Result.Runs)
		}
	}
	s.mu.Unlock()
	for key, n := range counts {
		exp, err := ParseCanonicalKey(key)
		if err != nil {
			return fmt.Errorf("persist: stored key %q: %w", key, err)
		}
		rest.RestoreExecCount(engine.KernelOf(exp), n)
	}
	return nil
}

// ParseCanonicalKey inverts engine.CanonicalKey: "2*add|1*imul" back
// into the experiment multiset. It validates counts and rejects
// malformed terms instead of guessing.
func ParseCanonicalKey(key string) (portmodel.Experiment, error) {
	if key == "" {
		return nil, fmt.Errorf("empty canonical key")
	}
	e := make(portmodel.Experiment)
	for _, term := range strings.Split(key, "|") {
		i := strings.Index(term, "*")
		if i <= 0 || i == len(term)-1 {
			return nil, fmt.Errorf("malformed term %q", term)
		}
		n, err := strconv.Atoi(term[:i])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid count in term %q", term)
		}
		e[term[i+1:]] += n
	}
	return e, nil
}
