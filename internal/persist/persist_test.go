package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

const testFP = "test:v1 seed=1 noise=0.001"

// mustNotPanic runs fn under a recover harness: corrupt on-disk input
// must surface as an error, never as a panic.
func mustNotPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked on corrupt input: %v", r)
		}
	}()
	fn()
}

func testRecord(gen uint64, key string, tp float64) Record {
	return Record{Gen: gen, Key: key, Result: engine.Result{
		InvThroughput: tp, CPI: tp, OpsPerIteration: 1, Runs: 11,
	}}
}

// writeJournal renders a syntactically valid journal with the given
// fingerprint and records.
func writeJournal(t *testing.T, path, fingerprint string, recs ...Record) []byte {
	t.Helper()
	hdr, err := encodeHeaderFrame(fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(hdr)
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), journalFile)
	want := []Record{
		testRecord(0, "1*add", 0.25),
		testRecord(0, "2*add|1*imul", 1.0),
		testRecord(2, "1*add", 0.26),
	}
	writeJournal(t, path, testFP, want...)

	rec, err := ReadJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 0 {
		t.Errorf("TornBytes = %d, want 0 for a clean journal", rec.TornBytes)
	}
	if !reflect.DeepEqual(rec.Records, want) {
		t.Errorf("records = %+v, want %+v", rec.Records, want)
	}
}

func TestJournalMissingFile(t *testing.T) {
	rec, err := ReadJournal(filepath.Join(t.TempDir(), "nope.zpj"), testFP)
	if err != nil {
		t.Fatalf("missing journal: %v, want empty recovery", err)
	}
	if len(rec.Records) != 0 || rec.GoodSize != 0 {
		t.Errorf("missing journal recovered %d records, GoodSize %d", len(rec.Records), rec.GoodSize)
	}
}

// TestJournalCorruptInputs feeds truncated, bit-flipped, and
// wrong-fingerprint journals through recovery. Damaged tails are
// truncated silently; a damaged header is an error. Nothing panics.
func TestJournalCorruptInputs(t *testing.T) {
	recs := []Record{
		testRecord(0, "1*add", 0.25),
		testRecord(0, "1*imul", 1.0),
		testRecord(1, "1*add", 0.26),
	}

	cases := []struct {
		name    string
		mutate  func(t *testing.T, path string, data []byte)
		wantErr error
		// wantRecords is checked only when wantErr is nil.
		wantRecords int
		wantTorn    bool
	}{
		{
			name: "truncated mid-record",
			mutate: func(t *testing.T, path string, data []byte) {
				writeFile(t, path, data[:len(data)-5])
			},
			wantRecords: 2,
			wantTorn:    true,
		},
		{
			name: "garbage appended after crash",
			mutate: func(t *testing.T, path string, data []byte) {
				writeFile(t, path, append(data, []byte("\x13\x37garbage")...))
			},
			wantRecords: 3,
			wantTorn:    true,
		},
		{
			name: "bit flip in middle record stops trust there",
			mutate: func(t *testing.T, path string, data []byte) {
				hdr, _ := encodeHeaderFrame(testFP)
				// Flip a bit inside the payload of the second record
				// frame (past header and first record).
				first, _ := json.Marshal(recs[0])
				off := len(hdr) + frameOverhead + len(first) + frameOverhead + 3
				data[off] ^= 0x40
				writeFile(t, path, data)
			},
			wantRecords: 1,
			wantTorn:    true,
		},
		{
			name: "empty file",
			mutate: func(t *testing.T, path string, data []byte) {
				writeFile(t, path, nil)
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "truncated header",
			mutate: func(t *testing.T, path string, data []byte) {
				writeFile(t, path, data[:5])
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "bit flip in header",
			mutate: func(t *testing.T, path string, data []byte) {
				data[frameOverhead+2] ^= 0x01
				writeFile(t, path, data)
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "wrong fingerprint",
			mutate: func(t *testing.T, path string, data []byte) {
				writeJournal(t, path, "other-machine", recs...)
			},
			wantErr: ErrFingerprintMismatch,
		},
		{
			name: "wrong version",
			mutate: func(t *testing.T, path string, data []byte) {
				payload, _ := json.Marshal(Header{Version: 99, Fingerprint: testFP})
				var buf bytes.Buffer
				if err := appendFrame(&buf, payload); err != nil {
					t.Fatal(err)
				}
				writeFile(t, path, buf.Bytes())
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "oversized length prefix",
			mutate: func(t *testing.T, path string, data []byte) {
				binary.LittleEndian.PutUint32(data[0:4], maxFramePayload+1)
				writeFile(t, path, data)
			},
			wantErr: ErrCorrupt,
		},
		{
			name: "checksum-valid frame with unparsable record",
			mutate: func(t *testing.T, path string, data []byte) {
				hdr, _ := encodeHeaderFrame(testFP)
				var buf bytes.Buffer
				buf.Write(hdr)
				if err := appendFrame(&buf, []byte(`{"gen":"not a number"}`)); err != nil {
					t.Fatal(err)
				}
				writeFile(t, path, buf.Bytes())
			},
			wantRecords: 0,
			wantTorn:    true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), journalFile)
			data := writeJournal(t, path, testFP, recs...)
			tc.mutate(t, path, data)

			var rec *RecoveredJournal
			var err error
			mustNotPanic(t, func() { rec, err = ReadJournal(path, testFP) })

			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != tc.wantRecords {
				t.Errorf("recovered %d records, want %d", len(rec.Records), tc.wantRecords)
			}
			if tc.wantTorn != (rec.TornBytes > 0) {
				t.Errorf("TornBytes = %d, wantTorn = %v", rec.TornBytes, tc.wantTorn)
			}
		})
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreReopen checks the basic persistence cycle: record, close
// (compacting into the snapshot), reopen, and read everything back.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	s.Record(0, "1*add", engine.Result{InvThroughput: 0.25, Runs: 11})
	s.Record(1, "1*add", engine.Result{InvThroughput: 0.26, Runs: 11})
	s.BatchEnd()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.RecordCount(); n != 2 {
		t.Fatalf("RecordCount = %d, want 2", n)
	}
	g0 := r.Generation(0)
	if res, ok := g0["1*add"]; !ok || res.InvThroughput != 0.25 {
		t.Errorf("gen 0: %+v, want 1*add with 0.25", g0)
	}
	g1 := r.Generation(1)
	if res, ok := g1["1*add"]; !ok || res.InvThroughput != 0.26 {
		t.Errorf("gen 1: %+v, want 1*add with 0.26", g1)
	}
}

// TestStoreRecoversTornJournal simulates a kill mid-append: the valid
// prefix survives, the torn tail is truncated, and appending continues
// cleanly afterwards.
func TestStoreRecoversTornJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	data := writeJournal(t, path, testFP,
		testRecord(0, "1*add", 0.25),
		testRecord(0, "1*imul", 1.0),
	)
	writeFile(t, path, data[:len(data)-7]) // torn mid-frame

	var logged []string
	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLog(func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) })
	if n := s.RecordCount(); n != 1 {
		t.Fatalf("RecordCount after torn recovery = %d, want 1", n)
	}
	if len(logged) != 1 || !strings.HasSuffix(logged[0], " torn byte(s) in "+journalFile+" after crash") {
		t.Fatalf("logged %q, want one torn-tail notice for %s", logged, journalFile)
	}
	s.Record(0, "1*imul", engine.Result{InvThroughput: 1.0, Runs: 11})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.RecordCount(); n != 2 {
		t.Fatalf("RecordCount after reopen = %d, want 2", n)
	}
}

// TestStoreInvalidatesStaleState: a store opened over state from a
// different configuration (or plain corruption) must log, discard, and
// start fresh — stale measurements are worse than none.
func TestStoreInvalidatesStaleState(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, dir string)
	}{
		{
			name: "journal from other fingerprint",
			setup: func(t *testing.T, dir string) {
				writeJournal(t, filepath.Join(dir, journalFile), "other", testRecord(0, "1*add", 0.25))
			},
		},
		{
			name: "corrupt journal header",
			setup: func(t *testing.T, dir string) {
				writeFile(t, filepath.Join(dir, journalFile), []byte("not a journal"))
			},
		},
		{
			name: "snapshot checksum mismatch",
			setup: func(t *testing.T, dir string) {
				doc := append(seal(testFP, []byte("[]")), `[{"gen":0,"key":"1*add"}]`...)
				writeFile(t, filepath.Join(dir, snapshotFile), doc)
			},
		},
		{
			// The version-1 snapshot: a CRC line, then header and
			// records in one JSON object.
			name: "snapshot of the previous format",
			setup: func(t *testing.T, dir string) {
				body := fmt.Sprintf(`{"header":{"version":1,"fingerprint":%q},"records":[{"gen":0,"key":"1*add","result":{}}]}`, testFP)
				writeFile(t, filepath.Join(dir, snapshotFile), []byte(fmt.Sprintf("%08x\n%s", crc32Sum([]byte(body)), body)))
			},
		},
		{
			name: "journal of the previous format",
			setup: func(t *testing.T, dir string) {
				payload, _ := json.Marshal(Header{Version: 1, Fingerprint: testFP})
				var buf bytes.Buffer
				if err := appendFrame(&buf, payload); err != nil {
					t.Fatal(err)
				}
				rec, _ := json.Marshal(testRecord(0, "1*add", 0.25))
				if err := appendFrame(&buf, rec); err != nil {
					t.Fatal(err)
				}
				writeFile(t, filepath.Join(dir, journalFile), buf.Bytes())
			},
		},
		{
			name: "snapshot from other fingerprint",
			setup: func(t *testing.T, dir string) {
				writeSnapshotFile(t, dir, "other", testRecord(0, "1*add", 0.25))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.setup(t, dir)
			var s *Store
			var err error
			mustNotPanic(t, func() { s, err = Open(dir, testFP) })
			if err != nil {
				t.Fatalf("Open over stale state: %v, want fresh store", err)
			}
			defer s.Close()
			if n := s.RecordCount(); n != 0 {
				t.Errorf("RecordCount = %d, want 0 — stale records must not be trusted", n)
			}
			// The fresh store must be fully usable.
			s.Record(0, "1*add", engine.Result{InvThroughput: 0.25, Runs: 11})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreLogsOpenNotices: the notices Open emits while recovering
// the directory reach the log set after it returns, exactly once.
func TestStoreLogsOpenNotices(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, journalFile), []byte("not a journal"))
	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var logged []string
	logf := func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }
	s.SetLog(logf)
	if len(logged) != 1 || !strings.HasPrefix(logged[0], "persist: discarding "+journalFile+": ") {
		t.Fatalf("logged %q, want one discard notice for %s", logged, journalFile)
	}
	s.SetLog(logf)
	if len(logged) != 1 {
		t.Fatalf("notices replayed twice: %q", logged)
	}
}

// writeSnapshotFile renders a checksum-valid snapshot under an
// arbitrary fingerprint.
func writeSnapshotFile(t *testing.T, dir, fingerprint string, recs ...Record) {
	t.Helper()
	if err := WriteDocument(filepath.Join(dir, snapshotFile), fingerprint, recs); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck, err := NewCheckpointer(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct {
		Stage int            `json:"stage"`
		Votes map[string]int `json:"votes"`
	}
	var got payload
	if ok, err := ck.Load(&got); ok || err != nil {
		t.Errorf("absent checkpoint: ok=%v err=%v, want false,nil", ok, err)
	}
	for _, want := range []payload{{Stage: 3, Votes: map[string]int{"add": 2}}, {Stage: 4}} {
		if err := ck.Save(&want); err != nil {
			t.Fatal(err)
		}
		got = payload{}
		ok, err := ck.Load(&got)
		if err != nil || !ok {
			t.Fatalf("Load: ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}

	// Clear also removes the per-stage files older builds wrote.
	legacy := filepath.Join(dir, "checkpoints", "stage3.ckpt.json")
	if err := WriteDocument(legacy, testFP, 1); err != nil {
		t.Fatal(err)
	}
	if err := ck.Clear(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ck.Load(&got); ok {
		t.Error("checkpoint survived Clear")
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Errorf("legacy checkpoint survived Clear: %v", err)
	}
}

func TestParseCanonicalKey(t *testing.T) {
	cases := []struct {
		key     string
		want    portmodel.Experiment
		wantErr bool
	}{
		{key: "2*add|1*imul", want: portmodel.Experiment{"add": 2, "imul": 1}},
		{key: "1*add GPR[32], GPR[32]", want: portmodel.Experiment{"add GPR[32], GPR[32]": 1}},
		{key: "3*a|2*a", want: portmodel.Experiment{"a": 5}},
		{key: "", wantErr: true},
		{key: "add", wantErr: true},
		{key: "*add", wantErr: true},
		{key: "2*", wantErr: true},
		{key: "x*add", wantErr: true},
		{key: "0*add", wantErr: true},
		{key: "-1*add", wantErr: true},
	}
	for _, tc := range cases {
		e, err := ParseCanonicalKey(tc.key)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseCanonicalKey(%q) = %v, want error", tc.key, e)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCanonicalKey(%q): %v", tc.key, err)
			continue
		}
		if !reflect.DeepEqual(e, tc.want) {
			t.Errorf("ParseCanonicalKey(%q) = %v, want %v", tc.key, e, tc.want)
		}
	}
}

// countingProc is a minimal deterministic processor for store↔engine
// integration tests. The engine calls Execute from several workers, so
// the count is atomic.
type countingProc struct {
	executions atomic.Int64
}

func (p *countingProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	p.executions.Add(1)
	return engine.Counters{
		Cycles:       float64(len(kernel) * iterations),
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(len(kernel) * iterations),
	}, nil
}

func (p *countingProc) NumPorts() int { return 4 }
func (p *countingProc) Rmax() float64 { return 0 }

// TestStoreEngineIntegration: results executed by one engine are
// answered from disk by the next engine under the same fingerprint —
// zero re-executions — while a different fingerprint re-measures.
func TestStoreEngineIntegration(t *testing.T) {
	dir := t.TempDir()
	exps := []portmodel.Experiment{{"add": 1}, {"add": 2, "imul": 1}}

	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	proc := &countingProc{}
	eng := engine.New(proc)
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MeasureBatch(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if proc.executions.Load() == 0 {
		t.Fatal("first engine executed nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same fingerprint: everything comes from disk.
	s2, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	proc2 := &countingProc{}
	eng2 := engine.New(proc2)
	if err := s2.Attach(eng2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.MeasureBatch(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if proc2.executions.Load() != 0 {
		t.Errorf("second engine executed %d kernels, want 0 (warm from disk)", proc2.executions.Load())
	}
	m := eng2.Metrics()
	if m.CacheHits != uint64(len(exps)) {
		t.Errorf("cache hits = %d, want %d", m.CacheHits, len(exps))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Different fingerprint: the stale cache is discarded and the
	// experiments re-execute.
	s3, err := Open(dir, "different config")
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	proc3 := &countingProc{}
	eng3 := engine.New(proc3)
	if err := s3.Attach(eng3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng3.MeasureBatch(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if proc3.executions.Load() == 0 {
		t.Error("engine under a new fingerprint reused stale measurements")
	}
}

// TestStoreGenerations: BeginGeneration warms the engine cache from
// the matching stored generation only.
func TestStoreGenerations(t *testing.T) {
	dir := t.TempDir()
	exp := portmodel.Experiment{"add": 1}

	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	proc := &countingProc{}
	eng := engine.New(proc)
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Measure(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	eng.BeginGeneration(1)
	if _, err := eng.Measure(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.RecordCount(); n != 2 {
		t.Fatalf("RecordCount = %d, want 2 (one per generation)", n)
	}
	proc2 := &countingProc{}
	eng2 := engine.New(proc2)
	if err := s2.Attach(eng2); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(0); gen < 3; gen++ {
		eng2.BeginGeneration(gen)
		if _, err := eng2.Measure(context.Background(), exp); err != nil {
			t.Fatal(err)
		}
	}
	// Generations 0 and 1 are on disk; generation 2 is new.
	if proc2.executions.Load() == 0 {
		t.Error("generation 2 did not execute")
	}
	if got := eng2.Metrics().CacheHits; got != 2 {
		t.Errorf("cache hits = %d, want 2 (generations 0 and 1 from disk)", got)
	}
}

// TestStoreCompaction: once the journal passes the threshold, a batch
// boundary folds it into the snapshot and resets the journal.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	// Push the journal past the threshold with distinct keys.
	n := 0
	for s.journalBytes < compactThreshold {
		s.Record(0, fmt.Sprintf("1*k%06d", n), engine.Result{InvThroughput: 1, Runs: 11})
		n++
	}
	s.BatchEnd()
	if s.journalBytes >= compactThreshold {
		t.Fatalf("journal not compacted at batch end: %d bytes", s.journalBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.RecordCount(); got != n {
		t.Fatalf("RecordCount after compaction round-trip = %d, want %d", got, n)
	}
	// Snapshot output is stable: records sorted by (gen, key).
	recs := r.records.sorted()
	if !sort.SliceIsSorted(recs, func(i, j int) bool {
		if recs[i].Gen != recs[j].Gen {
			return recs[i].Gen < recs[j].Gen
		}
		return recs[i].Key < recs[j].Key
	}) {
		t.Error("snapshot records are not sorted by (gen, key)")
	}
}

// TestStoreEmptyFingerprint: refusing an empty fingerprint keeps
// unkeyed state out of the cache directory.
func TestStoreEmptyFingerprint(t *testing.T) {
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Error("Open accepted an empty fingerprint")
	}
	if _, err := NewCheckpointer(t.TempDir(), ""); err == nil {
		t.Error("NewCheckpointer accepted an empty fingerprint")
	}
}

// cancelingBatchProc executes normally until a threshold of calls,
// then fires the batch's CancelFunc — a SIGINT arriving mid-batch,
// which is exactly what signal.NotifyContext in the CLIs now delivers.
type cancelingBatchProc struct {
	countingProc
	cancel context.CancelFunc
	after  int
}

func (p *cancelingBatchProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	if p.executions.Load()+1 >= int64(p.after) && p.cancel != nil {
		p.cancel()
	}
	return p.countingProc.Execute(kernel, iterations)
}

// TestStoreCancellationMidBatchRecovers: a batch cancelled partway
// through (the signal-handling path of zeninfer/zeneval/zenbench) must
// leave the store closeable, and the journal it flushed must hand the
// already-executed prefix back to the next run as cache hits. This is
// the regression test for the latent bug where log.Fatal on the
// cancellation error skipped the deferred store.Close and left the
// journal unflushed.
func TestStoreCancellationMidBatchRecovers(t *testing.T) {
	dir := t.TempDir()
	exps := make([]portmodel.Experiment, 16)
	for i := range exps {
		exps[i] = portmodel.Experiment{fmt.Sprintf("k%02d", i): 1}
	}

	s, err := Open(dir, testFP)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proc := &cancelingBatchProc{cancel: cancel}
	eng := engine.New(proc)
	eng.Workers = 1 // sequential keys: a deterministic completed prefix
	// Let two full experiments complete before the "signal" arrives.
	proc.after = 2*engine.Reps + 1
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}

	_, err = eng.MeasureBatch(ctx, exps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	done := int(proc.executions.Load()) / engine.Reps
	if done == 0 {
		t.Fatal("cancellation fired before any experiment completed")
	}
	// The deferred Close in the CLIs' run() — compacts and closes the
	// journal even though the batch failed.
	if err := s.Close(); err != nil {
		t.Fatalf("closing store after cancellation: %v", err)
	}

	// The next run recovers the completed prefix from disk.
	s2, err := Open(dir, testFP)
	if err != nil {
		t.Fatalf("reopening store after cancelled run: %v", err)
	}
	defer s2.Close()
	proc2 := &countingProc{}
	eng2 := engine.New(proc2)
	eng2.Workers = 1
	if err := s2.Attach(eng2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.MeasureBatch(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	m := eng2.Metrics()
	if int(m.CacheHits) < done {
		t.Fatalf("recovered run: %d cache hits, want at least the %d completed before cancellation", m.CacheHits, done)
	}
	if proc2.executions.Load() >= int64(len(exps)*engine.Reps) {
		t.Fatalf("recovered run re-executed everything (%d executions): journal was not recovered", proc2.executions.Load())
	}
}
