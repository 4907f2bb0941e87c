package uopsinfo

import (
	"context"
	"errors"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

var db = zen.Build()

func intelHarness() *engine.Engine {
	m := zensim.NewMachine(db, zensim.Config{Noise: -1, PerPortCounters: true, DisableAnomalies: true})
	return engine.New(m)
}

func TestRequiresPerPortCounters(t *testing.T) {
	// On the Zen+ counter configuration the algorithm must refuse —
	// this is the premise of the paper.
	m := zensim.NewMachine(db, zensim.Config{Noise: -1})
	h := engine.New(m)
	_, err := Infer(context.Background(), h, []string{"add GPR[32], GPR[32]"})
	if !errors.Is(err, ErrNoPerPortCounters) {
		t.Fatalf("err = %v, want ErrNoPerPortCounters", err)
	}
}

func TestInferRecoversGroundTruth(t *testing.T) {
	h := intelHarness()
	keys := []string{
		"add GPR[32], GPR[32]",
		"vpor XMM, XMM, XMM",
		"vpaddd XMM, XMM, XMM",
		"vminps XMM, XMM, XMM",
		"vbroadcastss XMM, XMM",
		"vpaddsw XMM, XMM, XMM",
		"vaddps XMM, XMM, XMM",
		"mov GPR[32], MEM[32]",
		"vpslld XMM, XMM, XMM",
		"vroundps XMM, XMM, IMM[8]",
		"vpmuldq XMM, XMM, XMM",
		"imul GPR[32], GPR[32]",
		"vmovd XMM, GPR[32]",
		// Multi-µop schemes.
		"add GPR[32], MEM[32]",
		"vpaddd YMM, YMM, YMM",
		"add MEM[64], GPR[64]",
	}
	res, err := Infer(context.Background(), h, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		want := db.MustGet(key).Uops
		if key == "add MEM[64], GPR[64]" {
			// There is no blocking instruction for the store port
			// (§4.1.1/§5.1.1 in the papers), so Algorithm 1 can only
			// attribute the store µop to the enclosing [4,5] set.
			want = portmodel.Usage{
				{Ports: portmodel.MakePortSet(4, 5), Count: 1},
				{Ports: portmodel.MakePortSet(6, 7, 8, 9), Count: 1},
			}
		}
		got, ok := res.Mapping.Get(key)
		if !ok {
			t.Errorf("%s: not inferred (skipped: %v)", key, res.Skipped)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%s: inferred %v, truth %v", key, got, want)
		}
	}
	if len(res.Blocking) < 10 {
		t.Errorf("only %d blocking port sets found", len(res.Blocking))
	}
}

func TestInferNoPortInstructions(t *testing.T) {
	h := intelHarness()
	res, err := Infer(context.Background(), h, []string{"nop", "add GPR[32], GPR[32]"})
	if err != nil {
		t.Fatal(err)
	}
	u, ok := res.Mapping.Get("nop")
	if !ok || len(u) != 0 {
		t.Fatalf("nop usage = %v", u)
	}
}

func TestBlockCountFormula(t *testing.T) {
	// k = min(100, max(10, |pu|·µops, 2·|pu|·max(1, ⌊tp⌋))).
	if got := blockCount(1, 1, 0.25); got != 10 {
		t.Fatalf("k = %d, want 10", got)
	}
	if got := blockCount(4, 9, 1); got != 36 {
		t.Fatalf("k = %d, want 36", got)
	}
	if got := blockCount(4, 2, 9.5); got != 72 {
		t.Fatalf("k = %d, want 72", got)
	}
	if got := blockCount(4, 50, 1); got != 100 {
		t.Fatalf("k = %d, want 100 (cap)", got)
	}
}

func TestInferEmptyBlockingSet(t *testing.T) {
	h := intelHarness()
	// Only multi-µop schemes: no blocking instruction exists.
	_, err := Infer(context.Background(), h, []string{"add MEM[32], GPR[32]"})
	if err == nil {
		t.Fatal("expected error with no blocking instructions")
	}
}

func TestMappingPredictsThroughput(t *testing.T) {
	h := intelHarness()
	keys := []string{"add GPR[32], GPR[32]", "imul GPR[32], GPR[32]"}
	res, err := Infer(context.Background(), h, keys)
	if err != nil {
		t.Fatal(err)
	}
	e := portmodel.Experiment{"add GPR[32], GPR[32]": 4, "imul GPR[32], GPR[32]": 1}
	tp, err := res.Mapping.InverseThroughput(e)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Truth().InverseThroughput(e)
	if d := tp - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("predicted %v, truth %v", tp, want)
	}
}

// TestInferCanceled proves a cancelled context stops the measurement
// phase before any processor call.
func TestInferCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := intelHarness()
	if _, err := Infer(ctx, h, []string{"add GPR[32], GPR[32]"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := h.Metrics().ProcessorCalls; n != 0 {
		t.Fatalf("%d processor calls after cancellation, want 0", n)
	}
}
