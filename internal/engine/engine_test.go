package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// seqProc is a deterministic processor whose cycle count depends on
// the kernel and on how many times that exact kernel has run before —
// the same contract the zensim machine provides. It also counts
// Execute calls and can inject errors.
type seqProc struct {
	mu    sync.Mutex
	seq   map[string]int
	calls atomic.Int64

	failFirst int  // fail the first N calls...
	transient bool // ...with a transient (retryable) error
	onSlow    func()
}

func newSeqProc() *seqProc { return &seqProc{seq: make(map[string]int)} }

func (p *seqProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	n := p.calls.Add(1)
	if int(n) <= p.failFirst {
		err := fmt.Errorf("injected failure %d", n)
		if p.transient {
			return engine.Counters{}, engine.Transient(err)
		}
		return engine.Counters{}, err
	}
	key := fmt.Sprint(kernel)
	p.mu.Lock()
	rep := p.seq[key]
	p.seq[key]++
	p.mu.Unlock()
	if p.onSlow != nil && kernel[0] == "slow" {
		p.onSlow()
	}
	// Cycles depend only on (kernel, repetition index): order-
	// independent, like the simulator's per-experiment RNG.
	base := 0.5 * float64(len(kernel))
	jitter := 0.001 * float64((rep*31+len(kernel))%7)
	return engine.Counters{
		Cycles:       (base + jitter) * float64(iterations),
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(len(kernel) * iterations),
	}, nil
}

func (p *seqProc) NumPorts() int { return 4 }
func (p *seqProc) Rmax() float64 { return 5 }

func TestBatchDuplicatesExecuteOnce(t *testing.T) {
	p := newSeqProc()
	g := engine.New(p)
	g.Workers = 4
	exps := []portmodel.Experiment{
		{"a": 1}, {"a": 1}, {"b": 2, "a": 1}, {"a": 1, "b": 2}, {"a": 1},
	}
	rs, err := g.MeasureBatch(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	// 2 unique canonical keys ("1*a" and "1*a|2*b") × 11 reps.
	if got := p.calls.Load(); got != 22 {
		t.Fatalf("processor executed %d times, want 22", got)
	}
	sameResult := func(a, b engine.Result) bool {
		x, _ := json.Marshal(a)
		y, _ := json.Marshal(b)
		return string(x) == string(y)
	}
	if !sameResult(rs[0], rs[1]) || !sameResult(rs[0], rs[4]) {
		t.Fatal("duplicate experiments returned different results")
	}
	if !sameResult(rs[2], rs[3]) {
		t.Fatal("canonically equal experiments returned different results")
	}
	m := g.Metrics()
	if m.Executed != 2 {
		t.Fatalf("Executed = %d, want 2", m.Executed)
	}
	if m.Coalesced != 3 {
		t.Fatalf("Coalesced = %d, want 3", m.Coalesced)
	}
	if m.Submitted != 5 || m.Completed != 5 {
		t.Fatalf("Submitted/Completed = %d/%d, want 5/5", m.Submitted, m.Completed)
	}
}

func TestCacheAndClearCache(t *testing.T) {
	p := newSeqProc()
	g := engine.New(p)
	e := portmodel.Exp("a")
	if _, err := g.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	calls := p.calls.Load()
	if _, err := g.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if p.calls.Load() != calls {
		t.Fatal("cached measurement hit the processor")
	}
	if g.Metrics().CacheHits != 1 {
		t.Fatalf("CacheHits = %d", g.Metrics().CacheHits)
	}
	g.BeginGeneration(1)
	if _, err := g.Measure(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if p.calls.Load() == calls {
		t.Fatal("a new generation kept the cache")
	}
	if g.MeasurementCount() != 2 {
		t.Fatalf("MeasurementCount = %d, want 2 (monotonic)", g.MeasurementCount())
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := newSeqProc()
	// The first execution of the "slow" kernel cancels the batch;
	// with one worker the "fast" experiment is already done by then.
	p.onSlow = func() { cancel() }
	g := engine.New(p)
	g.Workers = 1
	exps := []portmodel.Experiment{{"fast": 1}, {"slow": 1}}
	rs, err := g.MeasureBatch(ctx, exps)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if rs == nil {
		t.Fatal("no partial results returned")
	}
	if rs[0].Runs == 0 {
		t.Fatal("completed experiment missing from partial results")
	}
	if rs[1].Runs != 0 {
		t.Fatal("cancelled experiment reported as completed")
	}
	if g.Metrics().Canceled == 0 {
		t.Fatal("Canceled metric not incremented")
	}
}

func TestTransientRetryBounded(t *testing.T) {
	p := newSeqProc()
	p.failFirst, p.transient = 2, true
	g := engine.New(p)
	r, err := g.Measure(context.Background(), portmodel.Exp("a"))
	if err != nil {
		t.Fatalf("transient failures within the engine's 2 retries should succeed: %v", err)
	}
	if r.Runs != 11 {
		t.Fatalf("Runs = %d", r.Runs)
	}
	if g.Metrics().Retries != 2 {
		t.Fatalf("Retries = %d, want 2", g.Metrics().Retries)
	}

	p2 := newSeqProc()
	p2.failFirst, p2.transient = 3, true
	g2 := engine.New(p2)
	if _, err := g2.Measure(context.Background(), portmodel.Exp("a")); err == nil {
		t.Fatal("exhausted retries should fail")
	}

	p3 := newSeqProc()
	p3.failFirst = 1 // permanent
	g3 := engine.New(p3)
	if _, err := g3.Measure(context.Background(), portmodel.Exp("a")); err == nil {
		t.Fatal("permanent error should not be retried")
	}
	if got := p3.calls.Load(); got != 1 {
		t.Fatalf("permanent error retried: %d calls", got)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The same batch over 1, 4, and 16 workers must produce
	// byte-identical results when the processor's outputs depend only
	// on (kernel, per-kernel repetition index).
	var exps []portmodel.Experiment
	for i := 0; i < 12; i++ {
		exps = append(exps, portmodel.Experiment{
			fmt.Sprintf("k%d", i%5): 1 + i%3,
			"shared":                1,
		})
	}
	var golden []byte
	for _, workers := range []int{1, 4, 16} {
		g := engine.New(newSeqProc())
		g.Workers = workers
		rs, err := g.MeasureBatch(context.Background(), exps)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = data
		} else if string(golden) != string(data) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
}

func TestConcurrentMeasureSharedEngine(t *testing.T) {
	// Regression for the pre-engine data race: many goroutines
	// hammering one engine with overlapping experiments (run under
	// -race in CI). In-flight deduplication must keep the execution
	// count at one per unique key despite the contention.
	p := newSeqProc()
	g := engine.New(p)
	var wg sync.WaitGroup
	const goroutines = 16
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				e := portmodel.Experiment{fmt.Sprintf("k%d", j): 1}
				r, err := g.Measure(context.Background(), e)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Runs != 11 || math.IsNaN(r.InvThroughput) {
					t.Errorf("bad result %+v", r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := g.Metrics().Executed; got != 8 {
		t.Fatalf("Executed = %d, want 8 unique keys", got)
	}
	if got := p.calls.Load(); got != 8*11 {
		t.Fatalf("processor calls = %d, want 88", got)
	}
}

func TestEmptyExperimentRejected(t *testing.T) {
	g := engine.New(newSeqProc())
	if _, err := g.Measure(context.Background(), portmodel.Experiment{}); err == nil {
		t.Fatal("empty experiment accepted")
	}
	if _, err := g.MeasureBatch(context.Background(), []portmodel.Experiment{{"a": 1}, {}}); err == nil {
		t.Fatal("batch with empty experiment accepted")
	}
	if rs, err := g.MeasureBatch(context.Background(), nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty batch: %v, %v", rs, err)
	}
}

func TestCanonicalKeyAndMedians(t *testing.T) {
	for _, c := range []struct {
		e    portmodel.Experiment
		want string
	}{
		{portmodel.Experiment{"b": 2, "a": 1}, "1*a|2*b"},
		{portmodel.Experiment{"a": 1, "b": 2}, "1*a|2*b"},
		{portmodel.Experiment{"a": 2, "b": 2}, "2*a|2*b"},
	} {
		if k := engine.CanonicalKey(c.e); k != c.want {
			t.Fatalf("CanonicalKey(%v) = %q, want %q", c.e, k, c.want)
		}
	}
	// Median behaviour is pinned via measurement results: 11 reps of
	// the seqProc jitter sequence must reduce to the median element.
	g := engine.New(newSeqProc())
	r, err := g.Measure(context.Background(), portmodel.Exp("a"))
	if err != nil {
		t.Fatal(err)
	}
	if r.InvThroughput <= 0 || r.Spread < 0 {
		t.Fatalf("implausible result %+v", r)
	}
}
