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

// File names inside a cache directory. Epoch 0 — the only epoch a
// non-sharded run ever uses — keeps the legacy names; later writer
// epochs (lease takeovers in sharded campaigns) get epoch-suffixed
// names so two owners of the same slice directory can never append to
// the same file.
const (
	journalFile  = "journal.zpj"
	snapshotFile = "snapshot.json"
	tmpSuffix    = ".tmp"
)

// journalName returns the journal file name of a writer epoch.
func journalName(epoch uint64) string {
	if epoch == 0 {
		return journalFile
	}
	return fmt.Sprintf("journal-e%04d.zpj", epoch)
}

// snapshotName returns the snapshot file name of a writer epoch.
func snapshotName(epoch uint64) string {
	if epoch == 0 {
		return snapshotFile
	}
	return fmt.Sprintf("snapshot-e%04d.json", epoch)
}

// parseEpochName recognizes journal/snapshot files of any epoch.
func parseEpochName(name string) (epoch uint64, isJournal, ok bool) {
	switch name {
	case journalFile:
		return 0, true, true
	case snapshotFile:
		return 0, false, true
	}
	if rest, found := strings.CutPrefix(name, "journal-e"); found {
		if num, found := strings.CutSuffix(rest, ".zpj"); found {
			if e, err := strconv.ParseUint(num, 10, 64); err == nil {
				return e, true, true
			}
		}
	}
	if rest, found := strings.CutPrefix(name, "snapshot-e"); found {
		if num, found := strings.CutSuffix(rest, ".json"); found {
			if e, err := strconv.ParseUint(num, 10, 64); err == nil {
				return e, false, true
			}
		}
	}
	return 0, false, false
}

// epochFile is one journal or snapshot file found in a cache
// directory.
type epochFile struct {
	epoch uint64
	path  string
}

// listEpochFiles scans a cache directory for journal and snapshot
// files of every writer epoch, each list sorted by ascending epoch.
func listEpochFiles(dir string) (journals, snapshots []epochFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		epoch, isJournal, ok := parseEpochName(e.Name())
		if !ok {
			continue
		}
		f := epochFile{epoch: epoch, path: filepath.Join(dir, e.Name())}
		if isJournal {
			journals = append(journals, f)
		} else {
			snapshots = append(snapshots, f)
		}
	}
	sort.Slice(journals, func(i, j int) bool { return journals[i].epoch < journals[j].epoch })
	sort.Slice(snapshots, func(i, j int) bool { return snapshots[i].epoch < snapshots[j].epoch })
	return journals, snapshots, nil
}

// MaxEpoch returns the highest writer epoch with a journal or snapshot
// file in dir (0 when none exist). The lease protocol uses it to pick
// a takeover epoch strictly above anything ever written in the
// directory, even when the lease file itself was lost.
func MaxEpoch(dir string) (uint64, error) {
	journals, snapshots, err := listEpochFiles(dir)
	if err != nil {
		return 0, err
	}
	var highest uint64
	for _, f := range append(journals, snapshots...) {
		highest = max(highest, f.epoch)
	}
	return highest, nil
}

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
// A store additionally carries a writer epoch (OpenEpoch). Epochs make
// lease takeover in sharded campaigns safe: each owner of a slice
// directory appends to its own epoch's journal and compacts into its
// own epoch's snapshot, so a hung previous owner that wakes up after
// its slice was stolen can never interleave frames into — or clobber
// the snapshot of — the new owner. Its writes land in its own files,
// and because measurements are deterministic per (generation, key),
// recovery merging every epoch's files reads duplicated keys with
// identical values. Non-sharded runs always use epoch 0 (the legacy
// file names) and additionally hold LockDir, so they never see
// concurrent writers at all.
type Store struct {
	dir         string
	fingerprint string
	epoch       uint64

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
	// pending holds the notices of OpenEpoch until SetLog delivers
	// them: no caller can set a log before Open returns.
	pending []string
}

var _ engine.PersistHook = (*Store)(nil)

// Open opens (or creates) the cache directory and recovers its state
// under writer epoch 0 — the non-sharded form. A journal or snapshot
// written under a different fingerprint or a damaged header is
// invalidated: the store logs the reason and starts fresh, because
// cached measurements from another configuration are worse than no
// cache. Torn journal tails are truncated and the valid prefix is
// kept.
func Open(dir, fingerprint string) (*Store, error) {
	return OpenEpoch(dir, fingerprint, 0)
}

// OpenEpoch opens the cache directory as writer epoch `epoch`: state
// recovery merges the snapshots and journals of every epoch found in
// the directory (ascending epoch order, later epochs win), but all
// subsequent appends and compactions go to this epoch's own files.
// The shard lease protocol hands each successive owner of a slice
// directory a strictly increasing epoch, which is what keeps a stolen
// slice safe from its previous — possibly merely hung — owner.
func OpenEpoch(dir, fingerprint string, epoch uint64) (*Store, error) {
	st, err := loadState(dir, fingerprint)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fingerprint: fingerprint, epoch: epoch, records: st.records}
	for _, f := range st.stale {
		s.pending = append(s.pending, fmt.Sprintf("persist: discarding %s: %v", filepath.Base(f.path), f.err))
		if err := os.Remove(f.path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	var ownGood int64
	for _, j := range st.journals {
		if j.TornBytes > 0 {
			s.pending = append(s.pending, fmt.Sprintf("persist: ignoring %d torn byte(s) in %s after crash", j.TornBytes, filepath.Base(j.path)))
		}
		if len(j.Records) > 0 {
			s.dirty = true
		}
		if j.epoch == epoch {
			ownGood = j.GoodSize
		}
	}

	// Open our epoch's journal for appending, truncated to its valid
	// prefix (or freshly created with a header frame). Only our own
	// epoch's journal is rewritten: other epochs' files are not ours
	// (a hung previous owner may still hold an open descriptor on its
	// own journal).
	if s.journal, err = os.OpenFile(filepath.Join(dir, journalName(epoch)), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return nil, err
	}
	if ownGood > 0 {
		if err = s.journal.Truncate(ownGood); err == nil {
			_, err = s.journal.Seek(ownGood, 0)
		}
		s.journalBytes = ownGood
	} else {
		err = s.resetJournal()
	}
	if err != nil {
		s.journal.Close()
		return nil, err
	}
	return s, nil
}

// Epoch returns the store's writer epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// isStale classifies recovery errors that invalidate (rather than
// abort on) persisted state.
func isStale(err error) bool {
	return errors.Is(err, ErrFingerprintMismatch) || errors.Is(err, ErrCorrupt)
}

// SetLog routes the store's one-line notices to log, first delivering
// the ones OpenEpoch recorded while recovering the directory.
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

// sorted flattens the set in (gen, key) order, for stable snapshots
// and merges.
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

// Compact forces a snapshot write and journal reset.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked writes the full in-memory state into this epoch's
// snapshot atomically (write temp, fsync, rename), then resets this
// epoch's journal to just its header and garbage-collects the files of
// strictly older epochs (their records are now folded into our
// snapshot; a hung older owner still appending to an unlinked journal
// writes into the void, harmlessly — its results are deterministic
// duplicates of ours). A crash between the rename and the reset leaves
// records present in both files; recovery merges them idempotently.
func (s *Store) compactLocked() error {
	if !s.dirty {
		return nil
	}
	if err := WriteDocument(filepath.Join(s.dir, snapshotName(s.epoch)), s.fingerprint, s.records.sorted()); err != nil {
		return err
	}
	s.removeOlderEpochsLocked()
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

// resetJournal truncates this epoch's journal to its header frame.
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

// removeOlderEpochsLocked garbage-collects journal and snapshot files
// of epochs strictly below ours; their contents are folded into the
// snapshot we just wrote. Strictly below: a zombie owner compacting at
// epoch e must never delete the files of the owner that displaced it
// at e+1. Removal failures are logged, not fatal — stale files merely
// cost a redundant merge at the next recovery.
func (s *Store) removeOlderEpochsLocked() {
	journals, snapshots, err := listEpochFiles(s.dir)
	if err != nil {
		s.logf("persist: epoch gc scan: %v", err)
		return
	}
	for _, f := range append(journals, snapshots...) {
		if f.epoch >= s.epoch {
			continue
		}
		if err := os.Remove(f.path); err != nil && !os.IsNotExist(err) {
			s.logf("persist: epoch gc %s: %v", filepath.Base(f.path), err)
		}
	}
}

// AbsorbRecords merges externally recovered records (a slice
// directory's state, during campaign merge) into the store. The
// records are journaled into the snapshot at the next compaction;
// callers that need them durable call Compact.
func (s *Store) AbsorbRecords(recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if r.Key == "" {
			continue
		}
		s.records.insert(r)
	}
	if len(recs) > 0 {
		s.dirty = true
	}
}

// ReadState recovers every record persisted in dir — all epochs'
// snapshots and journals, ascending epoch order, later epochs winning —
// without opening the directory for writing. Unlike OpenEpoch it treats
// a stale or damaged file as a hard error rather than invalidating it:
// the campaign merge uses ReadState to *validate* that each slice was
// measured under the campaign fingerprint, and silently discarding a
// mismatched slice would turn a configuration error into quietly
// missing data. Torn journal tails are still tolerated (the valid
// prefix is returned), and a directory with no persisted state returns
// no records.
func ReadState(dir, fingerprint string) ([]Record, error) {
	st, err := loadState(dir, fingerprint)
	if err != nil {
		return nil, err
	}
	if len(st.stale) > 0 {
		return nil, fmt.Errorf("%s: %w", filepath.Base(st.stale[0].path), st.stale[0].err)
	}
	return st.records.sorted(), nil
}

// loadedState is what loadState recovers from a cache directory.
type loadedState struct {
	records recordSet
	// journals are the journals that passed validation, by ascending
	// epoch, with their valid prefix and torn tail.
	journals []loadedJournal
	// stale are the files that failed validation (ErrCorrupt or
	// ErrFingerprintMismatch), in reading order; none of their
	// records are in records.
	stale []staleFile
}

type loadedJournal struct {
	epoch uint64
	path  string
	*RecoveredJournal
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

// loadState merges the snapshots and journals of every writer epoch
// in dir: snapshots first (each epoch's compacted history), then the
// journals (records since each epoch's last compaction), each in
// ascending epoch order, later files winning. It is the one recovery
// path of OpenEpoch and ReadState; what a stale file means is theirs
// to decide. Other I/O errors abort.
func loadState(dir, fingerprint string) (*loadedState, error) {
	if fingerprint == "" {
		return nil, fmt.Errorf("persist: empty fingerprint")
	}
	journals, snapshots, err := listEpochFiles(dir)
	if err != nil {
		return nil, err
	}
	st := &loadedState{records: make(recordSet)}
	for _, f := range snapshots {
		var recs []Record
		_, err := ReadDocument(f.path, fingerprint, &recs)
		for i := 0; err == nil && i < len(recs); i++ {
			if recs[i].Key == "" {
				err = fmt.Errorf("%w: snapshot record with empty key", ErrCorrupt)
			}
		}
		if err != nil {
			if err := st.reject(f.path, err); err != nil {
				return nil, err
			}
			continue
		}
		for _, r := range recs {
			st.records.insert(r)
		}
	}
	for _, f := range journals {
		rec, err := ReadJournal(f.path, fingerprint)
		if err != nil {
			if err := st.reject(f.path, err); err != nil {
				return nil, err
			}
			continue
		}
		for _, r := range rec.Records {
			st.records.insert(r)
		}
		st.journals = append(st.journals, loadedJournal{f.epoch, f.path, rec})
	}
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
