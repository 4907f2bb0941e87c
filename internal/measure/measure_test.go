package measure

import (
	"errors"
	"math"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// fakeProc is a deterministic processor for harness tests: inverse
// throughput is 0.5 cycles per instruction, 1 op per instruction,
// with an optional error and a call counter.
type fakeProc struct {
	calls int
	fail  bool
}

func (f *fakeProc) Execute(kernel []string, iterations int) (Counters, error) {
	f.calls++
	if f.fail {
		return Counters{}, errors.New("boom")
	}
	n := float64(len(kernel) * iterations)
	return Counters{
		Cycles:       0.5 * n,
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(len(kernel) * iterations),
	}, nil
}

func (f *fakeProc) NumPorts() int { return 4 }
func (f *fakeProc) Rmax() float64 { return 5 }

func TestMeasureBasics(t *testing.T) {
	p := &fakeProc{}
	h := NewHarness(p)
	e := portmodel.Experiment{"a": 2, "b": 1}
	r, err := h.Measure(e)
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
	if r.Runs != 11 {
		t.Fatalf("runs = %d, want 11", r.Runs)
	}
}

func TestMeasureCaches(t *testing.T) {
	p := &fakeProc{}
	h := NewHarness(p)
	e := portmodel.Exp("a")
	if _, err := h.Measure(e); err != nil {
		t.Fatal(err)
	}
	calls := p.calls
	if _, err := h.Measure(portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	if p.calls != calls {
		t.Fatal("second Measure hit the processor despite cache")
	}
	if h.MeasurementCount() != 1 {
		t.Fatalf("MeasurementCount = %d", h.MeasurementCount())
	}
	h.ClearCache()
	if _, err := h.Measure(portmodel.Exp("a")); err != nil {
		t.Fatal(err)
	}
	if p.calls == calls {
		t.Fatal("ClearCache did not clear")
	}
}

func TestMeasureEmptyAndError(t *testing.T) {
	h := NewHarness(&fakeProc{})
	if _, err := h.Measure(portmodel.Experiment{}); err == nil {
		t.Fatal("expected error for empty experiment")
	}
	h = NewHarness(&fakeProc{fail: true})
	if _, err := h.Measure(portmodel.Exp("a")); err == nil {
		t.Fatal("expected propagated processor error")
	}
}

func TestKernelInterleaving(t *testing.T) {
	// engine.KernelOf must interleave: [3×B, i] becomes B i B B
	// (round robin), not B B B i; the blocking instructions surround
	// i. Exercised through the harness alias to pin the wrapper.
	k := engine.KernelOf(portmodel.Experiment{"B": 3, "i": 1})
	if len(k) != 4 {
		t.Fatalf("kernel %v", k)
	}
	// Round-robin order: B i B B.
	if k[0] != "B" || k[1] != "i" || k[2] != "B" || k[3] != "B" {
		t.Fatalf("kernel order %v", k)
	}
}
