package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// shapedProc returns per-iteration cycle counts computed by shape from
// the per-kernel repetition index — the knob the adaptive tests use to
// place samples exactly where they want them.
type shapedProc struct {
	mu     sync.Mutex
	seq    map[string]int
	calls  atomic.Int64
	shape  func(rep int) float64
	onCall func(n int64)
}

func newShapedProc(shape func(rep int) float64) *shapedProc {
	return &shapedProc{seq: make(map[string]int), shape: shape}
}

func (p *shapedProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	n := p.calls.Add(1)
	if p.onCall != nil {
		p.onCall(n)
	}
	key := fmt.Sprint(kernel)
	p.mu.Lock()
	rep := p.seq[key]
	p.seq[key]++
	p.mu.Unlock()
	return engine.Counters{
		Cycles:       p.shape(rep) * float64(iterations),
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(len(kernel) * iterations),
	}, nil
}

func (p *shapedProc) NumPorts() int { return 4 }
func (p *shapedProc) Rmax() float64 { return 5 }

// TestOutlierSpikeRejected: a single 10× latency spike among clean
// samples must be rejected rather than poison the median, with the
// rejection visible in the result's quality record and the engine
// metrics.
func TestOutlierSpikeRejected(t *testing.T) {
	p := newShapedProc(func(rep int) float64 {
		c := 1.0 + 0.0001*float64(rep%7)
		if rep == 3 {
			c *= 10 // corrupted sample
		}
		return c
	})
	g := engine.New(p)
	r, err := g.Measure(context.Background(), portmodel.Exp("a"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs != 11 {
		t.Fatalf("Runs = %d, want 11 (no escalation needed)", r.Runs)
	}
	if r.Quality.Kept != 10 || r.Quality.Rejected != 1 {
		t.Fatalf("Kept/Rejected = %d/%d, want 10/1", r.Quality.Kept, r.Quality.Rejected)
	}
	if r.InvThroughput > 1.1 {
		t.Fatalf("InvThroughput = %v skewed by the rejected spike", r.InvThroughput)
	}
	if r.Quality.LowConfidence || r.Quality.Quarantined {
		t.Fatalf("clean measurement flagged: %+v", r.Quality)
	}
	m := g.Metrics()
	if m.SamplesKept != 10 || m.SamplesRejected != 1 {
		t.Fatalf("metrics kept/rejected = %d/%d, want 10/1", m.SamplesKept, m.SamplesRejected)
	}
	if len(g.LowConfidence()) != 0 {
		t.Fatalf("clean measurement entered the low-confidence registry")
	}
}

// TestEscalationQuarantineLowConfidence: a persistently dispersed
// measurement (modes too close to reject, too far apart for the
// quality target) must escalate to the cap, earn one quarantine batch,
// and come back flagged — never as an error.
func TestEscalationQuarantineLowConfidence(t *testing.T) {
	p := newShapedProc(func(rep int) float64 {
		return 1.0 + 0.2*float64(rep%5) // IQR/median ≈ 0.29, nothing rejectable
	})
	g := engine.New(p)
	r, err := g.Measure(context.Background(), portmodel.Exp("a"))
	if err != nil {
		t.Fatalf("low-quality measurement must degrade, not fail: %v", err)
	}
	// Reps (11) → escalate to 3×Reps (33) → one quarantine batch (44).
	if r.Runs != 44 {
		t.Fatalf("Runs = %d, want 44 (cap plus quarantine batch)", r.Runs)
	}
	if !r.Quality.Quarantined || !r.Quality.LowConfidence {
		t.Fatalf("quality = %+v, want quarantined and low-confidence", r.Quality)
	}
	if r.Quality.Kept != 44 || r.Quality.Rejected != 0 {
		t.Fatalf("Kept/Rejected = %d/%d, want 44/0 — close modes must not be rejected", r.Quality.Kept, r.Quality.Rejected)
	}
	if r.Quality.Spread <= 0.05 {
		t.Fatalf("Quality.Spread = %v, want above the quality target", r.Quality.Spread)
	}

	m := g.Metrics()
	if m.Quarantined != 1 || m.LowConfidence != 1 {
		t.Fatalf("metrics quarantined/lowconf = %d/%d, want 1/1", m.Quarantined, m.LowConfidence)
	}
	if m.MaxSpread <= 0 || m.MeanSpread <= 0 {
		t.Fatalf("spread aggregates not recorded: max=%v mean=%v", m.MaxSpread, m.MeanSpread)
	}
	lc := g.LowConfidence()
	if q, ok := lc["1*a"]; !ok || !q.LowConfidence {
		t.Fatalf("low-confidence registry = %v, want entry for 1*a", lc)
	}
}

// TestCancellationDuringEscalation: cancelling mid-escalation must
// return promptly with the context error instead of finishing the
// repetition budget.
func TestCancellationDuringEscalation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := newShapedProc(func(rep int) float64 {
		return 1.0 + 0.2*float64(rep%5) // keeps the loop escalating
	})
	p.onCall = func(n int64) {
		if n == 13 { // inside the first escalation batch
			cancel()
		}
	}
	g := engine.New(p)
	_, err := g.Measure(ctx, portmodel.Exp("a"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls := p.calls.Load(); calls > 15 {
		t.Fatalf("cancellation ignored: %d processor calls after cancel at 13", calls)
	}
	if g.Metrics().Canceled == 0 {
		t.Fatal("Canceled metric not incremented")
	}
}
