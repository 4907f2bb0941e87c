package engine_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// fixedProc is a noiseless processor: inverse throughput is 0.5 cycles
// per instruction, 1 op per instruction, with an optional error and a
// call counter.
type fixedProc struct {
	calls int
	fail  bool
}

func (f *fixedProc) Execute(kernel []string, iterations int) (engine.Counters, error) {
	f.calls++
	if f.fail {
		return engine.Counters{}, errors.New("boom")
	}
	n := float64(len(kernel) * iterations)
	return engine.Counters{
		Cycles:       0.5 * n,
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(len(kernel) * iterations),
	}, nil
}

func (f *fixedProc) NumPorts() int { return 4 }
func (f *fixedProc) Rmax() float64 { return 5 }

func TestMeasureBasics(t *testing.T) {
	g := engine.New(&fixedProc{})
	r, err := g.Measure(context.Background(), portmodel.Experiment{"a": 2, "b": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.InvThroughput-1.5) > 1e-9 {
		t.Fatalf("tp⁻¹ = %v, want 1.5", r.InvThroughput)
	}
	if math.Abs(r.CPI-0.5) > 1e-9 {
		t.Fatalf("CPI = %v, want 0.5", r.CPI)
	}
	if math.Abs(r.OpsPerIteration-3) > 1e-9 {
		t.Fatalf("ops = %v, want 3", r.OpsPerIteration)
	}
	if r.Runs != engine.Reps {
		t.Fatalf("runs = %d, want %d", r.Runs, engine.Reps)
	}
}

func TestMeasureCaches(t *testing.T) {
	p := &fixedProc{}
	g := engine.New(p)
	ctx := context.Background()
	if _, err := g.Measure(ctx, portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	calls := p.calls
	if _, err := g.Measure(ctx, portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	if p.calls != calls {
		t.Fatal("second Measure hit the processor despite cache")
	}
	if g.MeasurementCount() != 1 {
		t.Fatalf("MeasurementCount = %d", g.MeasurementCount())
	}
	g.BeginGeneration(1)
	if _, err := g.Measure(ctx, portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	if p.calls == calls {
		t.Fatal("a new generation kept the cache")
	}
}

func TestMeasureEmptyAndError(t *testing.T) {
	ctx := context.Background()
	if _, err := engine.New(&fixedProc{}).Measure(ctx, portmodel.Experiment{}); err == nil {
		t.Fatal("expected error for empty experiment")
	}
	// The processor's own error reaches the caller unchanged.
	_, err := engine.New(&fixedProc{fail: true}).Measure(ctx, portmodel.Exp("a"))
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want the processor's \"boom\"", err)
	}
}

func TestKernelInterleaving(t *testing.T) {
	// KernelOf must interleave: [3×B, i] becomes B i B B (round
	// robin), not B B B i; the blocking instructions surround i.
	k := engine.KernelOf(portmodel.Experiment{"B": 3, "i": 1})
	if len(k) != 4 {
		t.Fatalf("kernel %v", k)
	}
	if k[0] != "B" || k[1] != "i" || k[2] != "B" || k[3] != "B" {
		t.Fatalf("kernel order %v", k)
	}
}
