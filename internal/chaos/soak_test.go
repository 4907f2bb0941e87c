package chaos_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zenport/internal/chaos"
	"zenport/internal/core"
	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

// The chaos soak drives the complete inference pipeline through a
// defined fault regime and demands the mapping stay byte-identical to
// a fault-free run: transient errors are absorbed by retries, outlier
// spikes by rejection, stuck counters by the medians — and none of it
// may leak into a single inference decision.

// soakSubset mirrors the golden subset of the core package's
// determinism tests: six blocking classes, improper blockers,
// multi-µop schemes, and a no-port scheme, so every pipeline stage
// runs while the CEGAR search stays small enough to repeat per worker
// count.
func soakSubset(db *zen.DB) []isa.Scheme {
	keys := []string{
		"add GPR[32], GPR[32]",
		"vpor XMM, XMM, XMM",
		"vpaddd XMM, XMM, XMM",
		"vminps XMM, XMM, XMM",
		"mov GPR[32], MEM[32]",
		"vpslld XMM, XMM, XMM",
		"sub GPR[32], GPR[32]",
		"vpand XMM, XMM, XMM",
		"mov MEM[32], GPR[32]",
		"vmovapd MEM[128], XMM",
		"add GPR[32], MEM[32]",
		"add MEM[32], GPR[32]",
		"vpor YMM, YMM, YMM",
		"nop",
		"mov GPR[64], GPR[64]",
	}
	var out []isa.Scheme
	for _, k := range keys {
		out = append(out, db.MustGet(k).Scheme)
	}
	return out
}

// soakRegime is the documented soak mix: ≈2% transients, 1% 10×
// outlier spikes, 0.5% stuck counters, plus short hangs. Drift is
// excluded — a coherent drift shifts whole measurement windows, which
// no per-sample filter can reject (it has its own unit test).
func soakRegime() chaos.Regime {
	return chaos.Regime{
		TransientRate: 0.02,
		HangRate:      0.005,
		HangDuration:  50 * time.Microsecond,
		MaxPreFaults:  2,
		OutlierRate:   0.01,
		OutlierFactor: 10,
		StuckRate:     0.005,
	}
}

const (
	soakSeed      = 42   // zensim noise seed, shared with the golden run
	soakChaosSeed = 1234 // fault-plan seed
	soakFP        = "chaos-soak seed=42 noise=0.001"
)

// newSoakPipeline builds the inference pipeline over a fresh
// simulated machine, optionally wrapped by wrap (fault injection,
// crash injection).
func newSoakPipeline(t testing.TB, workers int, wrap func(engine.Processor) engine.Processor, opts core.Options) *core.Pipeline {
	t.Helper()
	db := zen.Build()
	var proc engine.Processor = zensim.NewMachine(db, zensim.Config{Noise: 0.001, Seed: soakSeed})
	if wrap != nil {
		proc = wrap(proc)
	}
	h := engine.New(proc)
	h.Workers = workers
	opts.Log = t.Logf
	return core.NewPipeline(h, soakSubset(db), opts)
}

var (
	goldenOnce sync.Once
	goldenJSON []byte
	goldenErr  error
)

// soakGolden returns the fault-free reference mapping JSON, computed
// once per test binary.
func soakGolden(t *testing.T) []byte {
	t.Helper()
	goldenOnce.Do(func() {
		p := newSoakPipeline(t, 4, nil, core.DefaultOptions())
		rep, err := p.Run()
		if err != nil {
			goldenErr = err
			return
		}
		if rep.Supported() == 0 {
			goldenErr = errors.New("golden run characterized nothing")
			return
		}
		goldenJSON, goldenErr = json.MarshalIndent(rep.Final, "", "  ")
	})
	if goldenErr != nil {
		t.Fatalf("golden fault-free run: %v", goldenErr)
	}
	return goldenJSON
}

// TestChaosSoak: the full pipeline under the soak regime must produce
// a mapping byte-identical to the fault-free golden run at every
// worker count, while the ledger confirms every configured fault
// class actually fired.
func TestChaosSoak(t *testing.T) {
	golden := soakGolden(t)
	workerSweep := []int{1, 4, 16}
	if raceEnabled {
		workerSweep = []int{4}
	}
	for _, workers := range workerSweep {
		var cp *chaos.Processor
		p := newSoakPipeline(t, workers, func(inner engine.Processor) engine.Processor {
			cp = chaos.New(inner, soakChaosSeed, soakRegime())
			return cp
		}, core.DefaultOptions())
		rep, err := p.Run()
		if err != nil {
			t.Fatalf("workers=%d: pipeline under chaos failed: %v", workers, err)
		}
		data, err := json.MarshalIndent(rep.Final, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(golden) {
			t.Fatalf("workers=%d: mapping under chaos differs from fault-free golden run", workers)
		}
		l := cp.Ledger()
		t.Logf("workers=%d: ledger %v", workers, l)
		if l.Rounds == 0 || l.Transients == 0 || l.Hangs == 0 || l.Outliers == 0 || l.Stuck == 0 {
			t.Fatalf("workers=%d: a configured fault class never fired: %v", workers, l)
		}
	}
}

// errCrashed simulates a process kill mid-soak.
var errCrashed = errors.New("simulated crash")

// crashWrap wraps the chaos processor and fails every execution past
// the limit with a permanent error, aborting the run the way a kill
// would. It forwards the optional interfaces the engine and the
// persistence layer probe for.
type crashWrap struct {
	inner *chaos.Processor
	limit int64
	calls atomic.Int64
}

func (c *crashWrap) ExecuteContext(ctx context.Context, kernel []string, iterations int) (engine.Counters, error) {
	if c.calls.Add(1) > c.limit {
		return engine.Counters{}, errCrashed
	}
	return c.inner.ExecuteContext(ctx, kernel, iterations)
}

func (c *crashWrap) Execute(kernel []string, iterations int) (engine.Counters, error) {
	return c.ExecuteContext(context.Background(), kernel, iterations)
}

func (c *crashWrap) NumPorts() int { return c.inner.NumPorts() }
func (c *crashWrap) Rmax() float64 { return c.inner.Rmax() }

func (c *crashWrap) RestoreExecCount(kernel []string, executions uint64) {
	c.inner.RestoreExecCount(kernel, executions)
}

// newPersistedChaosPipeline is newSoakPipeline plus the crash-safe
// store and stage checkpointer, as zeninfer -cache-dir -chaos wires
// them.
func newPersistedChaosPipeline(t *testing.T, dir string, workers int, limit int64, resume bool) (*core.Pipeline, *crashWrap) {
	t.Helper()
	var cw *crashWrap
	opts := core.DefaultOptions()
	p := newSoakPipeline(t, workers, func(inner engine.Processor) engine.Processor {
		cw = &crashWrap{inner: chaos.New(inner, soakChaosSeed, soakRegime()), limit: limit}
		return cw
	}, opts)
	store, err := persist.Open(dir, soakFP)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately never closed: a killed process does not compact
	// either. Recovery must work from the raw journal alone.
	if err := store.Attach(p.H); err != nil {
		t.Fatal(err)
	}
	ck, err := persist.NewCheckpointer(dir, soakFP)
	if err != nil {
		t.Fatal(err)
	}
	p.Opts.Checkpointer = ck
	p.Opts.Resume = resume
	return p, cw
}

// TestChaosSoakKillAndResume: a chaos run killed mid-soak and resumed
// must still converge on the fault-free golden mapping — the resumed
// process replays both the noise and the fault streams from the
// journal's execution counts.
func TestChaosSoakKillAndResume(t *testing.T) {
	golden := soakGolden(t)

	// Reference chaos run, unpersisted, to size the injection point.
	ref := newSoakPipeline(t, 4, func(inner engine.Processor) engine.Processor {
		return chaos.New(inner, soakChaosSeed, soakRegime())
	}, core.DefaultOptions())
	if _, err := ref.Run(); err != nil {
		t.Fatalf("reference chaos run: %v", err)
	}
	refCalls := int64(ref.H.Metrics().ProcessorCalls)
	if refCalls == 0 {
		t.Fatal("reference chaos run executed nothing")
	}
	crashAt := refCalls * 85 / 100

	dir := t.TempDir()
	crashed, _ := newPersistedChaosPipeline(t, dir, 4, crashAt, false)
	if _, err := crashed.Run(); !errors.Is(err, errCrashed) {
		t.Fatalf("interrupted run: err = %v, want simulated crash", err)
	}

	resumed, cw := newPersistedChaosPipeline(t, dir, 4, math.MaxInt64, true)
	rep, err := resumed.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	data, err := json.MarshalIndent(rep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("resumed chaos mapping differs from fault-free golden run")
	}
	// Completed work must be reused, not re-measured.
	if resCalls := cw.calls.Load(); resCalls >= refCalls/2 {
		t.Errorf("resumed run made %d processor calls, full run needs %d — completed work was not reused", resCalls, refCalls)
	}
}

// TestChaosSoakCancellation: cancelling mid-soak (with hangs in the
// regime) returns promptly with the context error and leaves the
// cache/journal consistent — a subsequent resume converges on the
// golden mapping.
func TestChaosSoakCancellation(t *testing.T) {
	golden := soakGolden(t)
	dir := t.TempDir()

	interrupted, _ := newPersistedChaosPipeline(t, dir, 4, math.MaxInt64, false)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := interrupted.RunContext(ctx)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation ignored for %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	resumed, _ := newPersistedChaosPipeline(t, dir, 4, math.MaxInt64, true)
	rep, err := resumed.Run()
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	data, err := json.MarshalIndent(rep.Final, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(golden) {
		t.Fatal("mapping resumed after cancellation differs from fault-free golden run")
	}
}
