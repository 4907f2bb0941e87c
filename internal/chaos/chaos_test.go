package chaos_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"zenport/internal/chaos"
	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// fakeInner is a deterministic processor in the zensim mold: its
// cycle count depends only on the kernel and on how many times that
// kernel has run before, so fault-injection transparency and replay
// can be checked exactly.
type fakeInner struct {
	mu  sync.Mutex
	seq map[string]int
}

func newFakeInner() *fakeInner { return &fakeInner{seq: make(map[string]int)} }

func (f *fakeInner) Execute(kernel []string, iterations int) (engine.Counters, error) {
	key := strings.Join(kernel, "\x00")
	f.mu.Lock()
	n := f.seq[key]
	f.seq[key]++
	f.mu.Unlock()
	cyc := (float64(len(kernel)) + 0.01*float64(n%5)) * float64(iterations)
	return engine.Counters{
		Cycles:       cyc,
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(len(kernel) * iterations),
		FPPortOps:    []float64{1, 2, 3, 4},
	}, nil
}

func (f *fakeInner) NumPorts() int { return 4 }
func (f *fakeInner) Rmax() float64 { return 5 }

func (f *fakeInner) RestoreExecCount(kernel []string, executions uint64) {
	key := strings.Join(kernel, "\x00")
	f.mu.Lock()
	if int(executions) > f.seq[key] {
		f.seq[key] = int(executions)
	}
	f.mu.Unlock()
}

// runRound drives one chaos round to completion the way the engine's
// retry loop would, returning the corrupted counters.
func runRound(t *testing.T, p *chaos.Processor, kernel []string) engine.Counters {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		c, err := p.Execute(kernel, 100)
		if err == nil {
			return c
		}
		if !engine.IsTransient(err) {
			t.Fatalf("non-transient injected error: %v", err)
		}
	}
	t.Fatal("round did not complete within 10 attempts")
	return engine.Counters{}
}

// TestFaultStreamIndependentOfOrder: the fault draws of one kernel
// must not depend on what other kernels run in between — the property
// that makes chaos runs worker-count invariant.
func TestFaultStreamIndependentOfOrder(t *testing.T) {
	regime := chaos.Regime{TransientRate: 0.3, OutlierRate: 0.2, OutlierFactor: 10, StuckRate: 0.2}
	a := []string{"a"}
	b := []string{"b"}

	// Sequential: all rounds of a, then all of b.
	p1 := chaos.New(newFakeInner(), 7, regime)
	var seqA, seqB []engine.Counters
	for i := 0; i < 40; i++ {
		seqA = append(seqA, runRound(t, p1, a))
	}
	for i := 0; i < 40; i++ {
		seqB = append(seqB, runRound(t, p1, b))
	}

	// Interleaved.
	p2 := chaos.New(newFakeInner(), 7, regime)
	var intA, intB []engine.Counters
	for i := 0; i < 40; i++ {
		intB = append(intB, runRound(t, p2, b))
		intA = append(intA, runRound(t, p2, a))
	}

	for i := range seqA {
		if seqA[i].Cycles != intA[i].Cycles || seqA[i].Ops != intA[i].Ops {
			t.Fatalf("kernel a round %d differs between orders: %+v vs %+v", i, seqA[i], intA[i])
		}
		if seqB[i].Cycles != intB[i].Cycles || seqB[i].Ops != intB[i].Ops {
			t.Fatalf("kernel b round %d differs between orders: %+v vs %+v", i, seqB[i], intB[i])
		}
	}
	if p1.Ledger() != p2.Ledger() {
		t.Fatalf("ledgers differ between orders: %v vs %v", p1.Ledger(), p2.Ledger())
	}
	if l := p1.Ledger(); l.Transients == 0 || l.Outliers == 0 || l.Stuck == 0 {
		t.Fatalf("fault regime did not fire: %v", l)
	}
}

// TestCorruptionsApplied forces each post-execution fault class and
// checks it lands on the counters.
func TestCorruptionsApplied(t *testing.T) {
	inner := newFakeInner()
	clean, err := inner.Execute([]string{"k"}, 100)
	if err != nil {
		t.Fatal(err)
	}

	p := chaos.New(newFakeInner(), 1, chaos.Regime{OutlierRate: 1, OutlierFactor: 10})
	c := runRound(t, p, []string{"k"})
	if c.Cycles != clean.Cycles*10 {
		t.Fatalf("outlier not applied: %v, want %v", c.Cycles, clean.Cycles*10)
	}

	p = chaos.New(newFakeInner(), 1, chaos.Regime{StuckRate: 1})
	c = runRound(t, p, []string{"k"})
	if c.Ops != 0 {
		t.Fatalf("stuck fault left Ops = %d", c.Ops)
	}
	for i, v := range c.FPPortOps {
		if v != 0 {
			t.Fatalf("stuck fault left FPPortOps[%d] = %v", i, v)
		}
	}
	if c.Cycles != clean.Cycles {
		t.Fatalf("stuck fault corrupted cycles: %v", c.Cycles)
	}

	// Drift: round 0 sits at sin(0) = 0 (unscaled), round 1 of a
	// 4-round period at sin(π/2) = 1, scaling cycles by 1+amplitude.
	clean1, err := inner.Execute([]string{"k"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	p = chaos.New(newFakeInner(), 1, chaos.Regime{DriftAmplitude: 0.5, DriftPeriod: 4})
	if got := runRound(t, p, []string{"k"}).Cycles; got != clean.Cycles {
		t.Fatalf("drift round 0 = %v, want unscaled %v", got, clean.Cycles)
	}
	if got, want := runRound(t, p, []string{"k"}).Cycles, clean1.Cycles*1.5; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("drift round 1 = %v, want %v", got, want)
	}
	if l := p.Ledger(); l.Drifted != 2 {
		t.Fatalf("Drifted = %d, want 2", l.Drifted)
	}
}

// TestZeroRegimeIsTransparent: the zero regime must be a perfect
// passthrough.
func TestZeroRegimeIsTransparent(t *testing.T) {
	ref := newFakeInner()
	p := chaos.New(newFakeInner(), 99, chaos.Regime{})
	kernel := []string{"x", "y"}
	for i := 0; i < 20; i++ {
		want, _ := ref.Execute(kernel, 100)
		got, err := p.Execute(kernel, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Ops != want.Ops {
			t.Fatalf("round %d not transparent: %+v vs %+v", i, got, want)
		}
	}
	if l := p.Ledger(); l.Transients+l.Hangs+l.Outliers+l.Stuck+l.Drifted != 0 {
		t.Fatalf("zero regime injected faults: %v", l)
	}
}

// TestHangHonorsContext: a cancelled context must interrupt an
// injected hang promptly, well before HangDuration elapses.
func TestHangHonorsContext(t *testing.T) {
	p := chaos.New(newFakeInner(), 3, chaos.Regime{HangRate: 1, HangDuration: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.ExecuteContext(ctx, []string{"k"}, 100)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang ignored cancellation for %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if p.Ledger().Hangs != 1 {
		t.Fatalf("Hangs = %d, want 1", p.Ledger().Hangs)
	}
}

// TestRestoreExecCountReplay: a fresh processor fast-forwarded to
// round n must draw the same faults and values a continuous run drew
// from round n on — the resumability contract.
func TestRestoreExecCountReplay(t *testing.T) {
	regime := chaos.Regime{TransientRate: 0.3, OutlierRate: 0.3, OutlierFactor: 10, StuckRate: 0.2}
	kernel := []string{"a", "b"}

	ref := chaos.New(newFakeInner(), 11, regime)
	var rounds []engine.Counters
	for i := 0; i < 30; i++ {
		rounds = append(rounds, runRound(t, ref, kernel))
	}

	const resumeAt = 12
	res := chaos.New(newFakeInner(), 11, regime)
	res.RestoreExecCount(kernel, resumeAt)
	for i := resumeAt; i < 30; i++ {
		got := runRound(t, res, kernel)
		if got.Cycles != rounds[i].Cycles || got.Ops != rounds[i].Ops {
			t.Fatalf("replayed round %d differs: %+v vs %+v", i, got, rounds[i])
		}
	}
}

// TestEngineRetriesAbsorbPreFaults: with MaxPreFaults ≤ the engine's 2 retries,
// even a 100% transient rate cannot fail a measurement — the worst
// case the documented regimes may produce is retries, never an
// aborted pipeline.
func TestEngineRetriesAbsorbPreFaults(t *testing.T) {
	p := chaos.New(newFakeInner(), 5, chaos.Regime{TransientRate: 1, MaxPreFaults: 2})
	g := engine.New(p)
	r, err := g.Measure(context.Background(), portmodel.Exp("k"))
	if err != nil {
		t.Fatalf("measurement failed under max transient rate: %v", err)
	}
	if r.Runs != 11 {
		t.Fatalf("Runs = %d, want 11", r.Runs)
	}
	// Every sample pays exactly MaxPreFaults injected transients.
	if got := g.Metrics().Retries; got != 22 {
		t.Fatalf("Retries = %d, want 22", got)
	}
	if l := p.Ledger(); l.Transients != 22 || l.Rounds != 11 {
		t.Fatalf("ledger = %v, want 22 transients over 11 rounds", l)
	}
	if w := g.Metrics().BackoffWait; w <= 0 {
		t.Fatalf("BackoffWait = %v, want > 0", w)
	}
}

// TestConsistentLieExact: a kernel targeted by LieExact reports scaled
// cycles on every execution — the corruption never varies, so the
// engine's outlier rejection has nothing to reject — while untargeted
// kernels pass through untouched.
func TestConsistentLieExact(t *testing.T) {
	regime := chaos.Regime{LieExact: []string{"1*a|1*b"}, LieFactor: 1.5}
	p := chaos.New(newFakeInner(), 9, regime)
	ref := newFakeInner()

	liar := engine.KernelOf(portmodel.Experiment{"a": 1, "b": 1})
	honest := engine.KernelOf(portmodel.Exp("a"))
	for i := 0; i < 10; i++ {
		got := runRound(t, p, liar)
		want, _ := ref.Execute(liar, 100)
		if math.Abs(got.Cycles-1.5*want.Cycles) > 1e-9 {
			t.Fatalf("round %d: lied cycles %v, want %v × 1.5", i, got.Cycles, want.Cycles)
		}
	}
	for i := 0; i < 10; i++ {
		got := runRound(t, p, honest)
		want, _ := ref.Execute(honest, 100)
		if got.Cycles != want.Cycles {
			t.Fatalf("round %d: honest kernel corrupted: %v vs %v", i, got.Cycles, want.Cycles)
		}
	}
	if l := p.Ledger(); l.Lies != 10 {
		t.Fatalf("Lies = %d, want 10", l.Lies)
	}
}

// TestLieMinDistinctGate: with the distinct-instruction gate at 2, the
// singleton kernels the classification stages depend on can never lie,
// no matter the rate.
func TestLieMinDistinctGate(t *testing.T) {
	regime := chaos.Regime{LieRate: 1.0, LieFactor: 2, LieMinDistinct: 2}
	p := chaos.New(newFakeInner(), 11, regime)
	ref := newFakeInner()

	single := engine.KernelOf(portmodel.Experiment{"a": 3})
	got := runRound(t, p, single)
	want, _ := ref.Execute(single, 100)
	if got.Cycles != want.Cycles {
		t.Fatalf("gated singleton lied: %v vs %v", got.Cycles, want.Cycles)
	}

	pair := engine.KernelOf(portmodel.Experiment{"a": 1, "b": 1})
	got = runRound(t, p, pair)
	want, _ = ref.Execute(pair, 100)
	if math.Abs(got.Cycles-2*want.Cycles) > 1e-9 {
		t.Fatalf("rate-1 pair did not lie: %v vs %v", got.Cycles, want.Cycles)
	}
	if l := p.Ledger(); l.Lies != 1 {
		t.Fatalf("Lies = %d, want 1", l.Lies)
	}
}

// TestLieIsStaticPerKernel: the lie decision must not change between
// rounds or survive into other kernels' streams, and re-creating the
// processor at the same seed reproduces it exactly.
func TestLieIsStaticPerKernel(t *testing.T) {
	regime := chaos.Regime{LieRate: 0.5, LieFactor: 3}
	kernels := [][]string{{"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}}
	verdicts := func(seed int64) []bool {
		p := chaos.New(newFakeInner(), seed, regime)
		ref := newFakeInner()
		out := make([]bool, len(kernels))
		for i, k := range kernels {
			lied := false
			for r := 0; r < 5; r++ {
				got := runRound(t, p, k)
				want, _ := ref.Execute(k, 100)
				isLie := math.Abs(got.Cycles-3*want.Cycles) < 1e-9
				if r == 0 {
					lied = isLie
				} else if isLie != lied {
					t.Fatalf("kernel %v flipped its lie verdict at round %d", k, r)
				}
			}
			out[i] = lied
		}
		return out
	}
	first := verdicts(21)
	again := verdicts(21)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("kernel %v verdict not reproducible at fixed seed", kernels[i])
		}
	}
	anyLie := false
	for _, v := range first {
		anyLie = anyLie || v
	}
	other := verdicts(22)
	differs := false
	for i := range first {
		differs = differs || first[i] != other[i]
	}
	if !anyLie && !differs {
		t.Skip("rate-0.5 draw produced no liar at either seed; statistically possible but suspicious")
	}
}

// TestLieFingerprint: lie parameters must invalidate caches, but a
// lie-free regime keeps the fingerprint it always had.
func TestLieFingerprint(t *testing.T) {
	base := chaos.New(newFakeInner(), 1, chaos.Regime{OutlierRate: 0.01})
	if strings.Contains(base.Fingerprint(), "lie=") {
		t.Fatalf("lie-free fingerprint mentions lies: %s", base.Fingerprint())
	}
	lied := chaos.New(newFakeInner(), 1, chaos.Regime{OutlierRate: 0.01, LieRate: 0.1})
	if lied.Fingerprint() == base.Fingerprint() {
		t.Fatal("lie regime does not change the fingerprint")
	}
	exact := chaos.New(newFakeInner(), 1, chaos.Regime{OutlierRate: 0.01, LieExact: []string{"1*a"}})
	if exact.Fingerprint() == base.Fingerprint() || exact.Fingerprint() == lied.Fingerprint() {
		t.Fatal("LieExact regimes must be distinguishable")
	}
}
