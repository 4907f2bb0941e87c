package palmed

import (
	"context"
	"errors"
	"math"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

var db = zen.Build()

func harness() *engine.Engine {
	m := zensim.NewMachine(db, zensim.Config{Noise: -1, DisableAnomalies: true})
	return engine.New(m)
}

// invThroughput measures e on h, failing the test on error.
func invThroughput(t *testing.T, h *engine.Engine, e portmodel.Experiment) float64 {
	t.Helper()
	r, err := h.Measure(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	return r.InvThroughput
}

var blockers = map[string]int{
	"add GPR[32], GPR[32]":      4,
	"vpor XMM, XMM, XMM":        4,
	"vpaddd XMM, XMM, XMM":      3,
	"vminps XMM, XMM, XMM":      2,
	"vaddps XMM, XMM, XMM":      2,
	"mov GPR[32], MEM[32]":      2,
	"vpslld XMM, XMM, XMM":      1,
	"vroundps XMM, XMM, IMM[8]": 1,
}

func TestInferAndPredict(t *testing.T) {
	h := harness()
	keys := []string{
		"add GPR[32], GPR[32]", "vpor XMM, XMM, XMM", "vminps XMM, XMM, XMM",
		"add GPR[32], MEM[32]", "vpslld XMM, XMM, XMM",
	}
	m, err := Infer(context.Background(), h, keys, blockers)
	if err != nil {
		t.Fatal(err)
	}
	// Singleton predictions should be close: pressure on the own
	// resource is 1/width.
	for _, k := range keys[:3] {
		want := invThroughput(t, h, portmodel.Exp(k))
		got, err := m.InverseThroughput(portmodel.Exp(k))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.35 {
			t.Errorf("%s: palmed predicts %v, measured %v", k, got, want)
		}
	}
}

func TestConjunctiveOverestimation(t *testing.T) {
	// The conjunctive model charges evadable µops on every resource,
	// so mixed kernels are predicted at least as slow as the truth —
	// the systematic underestimation of IPC in Figure 5(c).
	h := harness()
	keys := []string{"add GPR[32], GPR[32]", "vpaddd XMM, XMM, XMM", "vminps XMM, XMM, XMM"}
	m, err := Infer(context.Background(), h, keys, blockers)
	if err != nil {
		t.Fatal(err)
	}
	e := portmodel.Experiment{
		"add GPR[32], GPR[32]": 2,
		"vpaddd XMM, XMM, XMM": 1,
		"vminps XMM, XMM, XMM": 2,
	}
	pred, err := m.InverseThroughput(e)
	if err != nil {
		t.Fatal(err)
	}
	if truth := invThroughput(t, h, e); pred < truth-0.05 {
		t.Fatalf("palmed predicted faster (%v) than measured (%v)", pred, truth)
	}
	ipc, err := m.IPC(e)
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 {
		t.Fatalf("IPC = %v", ipc)
	}
}

func TestInferErrors(t *testing.T) {
	h := harness()
	if _, err := Infer(context.Background(), h, []string{"add GPR[32], GPR[32]"}, nil); err == nil {
		t.Fatal("expected error without saturating kernels")
	}
	m, err := Infer(context.Background(), h, []string{"add GPR[32], GPR[32]"}, blockers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InverseThroughput(portmodel.Exp("unknown")); err == nil {
		t.Fatal("expected error for unknown key")
	}
}

// TestInferCanceled proves a cancelled context stops the measurement
// phase before any processor call.
func TestInferCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := harness()
	if _, err := Infer(ctx, h, []string{"add GPR[32], GPR[32]"}, blockers); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := h.Metrics().ProcessorCalls; n != 0 {
		t.Fatalf("%d processor calls after cancellation, want 0", n)
	}
}
