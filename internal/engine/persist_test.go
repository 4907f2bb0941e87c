package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// cancelingProc fails transiently forever and cancels the context
// during its first call — the shape of a measurement backend dying
// while the caller gives up.
type cancelingProc struct {
	seqProc
	cancel context.CancelFunc
}

func (p *cancelingProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	p.calls.Add(1)
	p.cancel()
	return engine.Counters{}, engine.Transient(fmt.Errorf("flaky backend"))
}

// TestRetryStopsOnCancellation: a cancelled context must end the
// transient-retry loop at once with the context error, not burn
// through the retry budget first. A loop that ignored ctx would make
// three calls and report the transient error.
func TestRetryStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancelingProc{cancel: cancel}
	g := engine.New(p)

	_, err := g.Measure(ctx, portmodel.Exp("a"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if got := p.calls.Load(); got != 1 {
		t.Fatalf("retry loop made %d processor calls, want 1 (cancelled during the first)", got)
	}
}

// memHook is an in-memory engine.PersistHook, the minimal stand-in
// for the on-disk store.
type memHook struct {
	mu        sync.Mutex
	records   map[uint64]map[string]engine.Result
	batchEnds int
}

func newMemHook() *memHook { return &memHook{records: make(map[uint64]map[string]engine.Result)} }

func (h *memHook) Record(gen uint64, key string, r engine.Result) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.records[gen]
	if !ok {
		g = make(map[string]engine.Result)
		h.records[gen] = g
	}
	g[key] = r
}

func (h *memHook) Generation(gen uint64) map[string]engine.Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]engine.Result, len(h.records[gen]))
	for k, r := range h.records[gen] {
		out[k] = r
	}
	return out
}

func (h *memHook) BatchEnd() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.batchEnds++
}

// TestPersistHookReceivesExecutions: every executed (not cached, not
// coalesced) result reaches the hook under the current generation, and
// batch boundaries are signalled.
func TestPersistHookReceivesExecutions(t *testing.T) {
	p := newSeqProc()
	g := engine.New(p)
	h := newMemHook()
	g.Persist = h

	exps := []portmodel.Experiment{{"a": 1}, {"a": 1}, {"b": 2}}
	if _, err := g.MeasureBatch(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if h.batchEnds != 1 {
		t.Errorf("BatchEnd called %d times, want 1", h.batchEnds)
	}
	gen0 := h.Generation(0)
	if len(gen0) != 2 {
		t.Fatalf("hook holds %d gen-0 records, want 2: %v", len(gen0), gen0)
	}
	for _, key := range []string{"1*a", "2*b"} {
		if r, ok := gen0[key]; !ok || r.Runs == 0 {
			t.Errorf("hook missing executed result for %q", key)
		}
	}

	// A cache hit must not be re-recorded as a new execution.
	if _, err := g.Measure(context.Background(), portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	if got := len(h.Generation(0)); got != 2 {
		t.Errorf("cache hit grew the hook to %d records", got)
	}
}

// TestBeginGenerationWarmsFromHook: switching generations clears the
// live cache and pre-warms it from the hook's records for the target
// generation; re-entering the current generation is a no-op.
func TestBeginGenerationWarmsFromHook(t *testing.T) {
	p := newSeqProc()
	g := engine.New(p)
	h := newMemHook()
	g.Persist = h
	e := portmodel.Exp("a")

	if _, err := g.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	baseline := p.calls.Load()

	// Same generation: the warm cache must survive.
	g.BeginGeneration(g.CacheGeneration())
	if _, err := g.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if p.calls.Load() != baseline {
		t.Fatal("BeginGeneration of the current generation dropped the cache")
	}

	// New generation: fresh noise, so the experiment re-executes and is
	// recorded under generation 1.
	g.BeginGeneration(1)
	if _, err := g.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if p.calls.Load() == baseline {
		t.Fatal("new generation answered from the old generation's cache")
	}
	if len(h.Generation(1)) != 1 {
		t.Fatalf("gen-1 records: %v", h.Generation(1))
	}

	// Back to generation 0 on a second engine sharing the hook: both
	// generations must be answerable without touching the processor.
	p2 := newSeqProc()
	g2 := engine.New(p2)
	g2.Persist = h
	g2.WarmCache(h.Generation(0))
	if _, err := g2.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	g2.BeginGeneration(1)
	if _, err := g2.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if got := p2.calls.Load(); got != 0 {
		t.Fatalf("warm engine executed %d times, want 0", got)
	}
	if got := g2.Metrics().CacheHits; got != 2 {
		t.Fatalf("warm engine cache hits = %d, want 2", got)
	}
}

// TestWarmCacheIgnoresUnmeasured: zero-value results (the cancelled-
// batch placeholder) must not warm the cache — they would otherwise be
// served as real measurements after a resume.
func TestWarmCacheIgnoresUnmeasured(t *testing.T) {
	p := newSeqProc()
	g := engine.New(p)
	g.WarmCache(map[string]engine.Result{"1*a": {}})
	if _, err := g.Measure(context.Background(), portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	if p.calls.Load() == 0 {
		t.Fatal("unmeasured placeholder was served from the cache")
	}
}

// TestFingerprintCoversMeasurementConfig: the fingerprint spells out
// the fixed measurement constants and must NOT depend on the worker
// count (results are worker-count invariant).
func TestFingerprintCoversMeasurementConfig(t *testing.T) {
	base := func() *engine.Engine { return engine.New(newSeqProc()) }
	fp := base().Fingerprint()
	// Caches written by earlier builds stay valid only while the
	// default fingerprint keeps these bytes.
	if want := "engine:v2 reps=11 iters=100 eps=0.02 qspread=0.05 maxreps=33"; fp != want {
		t.Fatalf("default fingerprint %q, want %q", fp, want)
	}

	g := base()
	g.Workers = 16
	if g.Fingerprint() != fp {
		t.Error("fingerprint depends on the worker count")
	}
}

// TestRemeasure: a forced re-measurement executes fresh samples,
// replaces the cache entry, and records a cumulative Runs total so
// exec-count replay of the persisted record stays exact.
func TestRemeasure(t *testing.T) {
	p := newSeqProc()
	g := engine.New(p)
	h := newMemHook()
	g.Persist = h
	e := portmodel.Exp("a")
	ctx := context.Background()

	first, err := g.Measure(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	callsBefore := p.calls.Load()

	second, err := g.Remeasure(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	fresh := int(p.calls.Load() - callsBefore)
	if fresh == 0 {
		t.Fatal("Remeasure did not touch the processor")
	}
	if second.Runs != first.Runs+fresh {
		t.Fatalf("Runs = %d, want %d prior + %d fresh", second.Runs, first.Runs, fresh)
	}

	// The cache now answers with the re-measured result.
	again, err := g.Measure(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if again.Runs != second.Runs || again.InvThroughput != second.InvThroughput {
		t.Fatalf("cache kept the old result: %+v vs %+v", again, second)
	}

	// The persisted record carries the cumulative total.
	rec, ok := h.Generation(g.CacheGeneration())["1*a"]
	if !ok {
		t.Fatal("no persisted record for the key")
	}
	if rec.Runs != second.Runs {
		t.Fatalf("persisted Runs = %d, want %d", rec.Runs, second.Runs)
	}

	m := g.Metrics()
	if m.Remeasured != 1 {
		t.Fatalf("Remeasured = %d, want 1", m.Remeasured)
	}
	if m.Executed != 2 {
		t.Fatalf("Executed = %d, want 2 (initial + forced)", m.Executed)
	}
}

// TestRemeasureUncachedKey: re-measuring a never-measured experiment
// degrades to a plain first measurement.
func TestRemeasureUncachedKey(t *testing.T) {
	g := engine.New(newSeqProc())
	res, err := g.Remeasure(context.Background(), portmodel.Exp("b"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 || res.InvThroughput == 0 {
		t.Fatalf("empty result %+v", res)
	}
	if _, err := g.Remeasure(context.Background(), portmodel.Experiment{}); err == nil {
		t.Fatal("empty experiment accepted")
	}
}
