package pmevo

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

var evoKeys = []string{
	"add GPR[32], GPR[32]",
	"vpor XMM, XMM, XMM",
	"vminps XMM, XMM, XMM",
	"vpslld XMM, XMM, XMM",
	"mov GPR[32], MEM[32]",
}

func TestInferImprovesOverRandom(t *testing.T) {
	h := harness()
	cfg := DefaultConfig()
	cfg.Generations = 60
	cfg.Population = 40
	m, err := Infer(context.Background(), h, evoKeys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The evolved mapping should predict singleton throughputs
	// reasonably (within 30% on average — PMEvo is approximate).
	sum, n := 0.0, 0
	for _, k := range evoKeys {
		r, err := h.Measure(context.Background(), portmodel.Exp(k))
		if err != nil {
			t.Fatal(err)
		}
		want := r.InvThroughput
		got, err := m.InverseThroughputBounded(portmodel.Exp(k), h.P.Rmax())
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(got-want) / want
		n++
	}
	if mape := sum / float64(n); mape > 0.30 {
		t.Fatalf("singleton MAPE %.2f too high\n%v", mape, m)
	}
}

func TestInferDeterministicForSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 10
	cfg.Population = 20
	m1, err := Infer(context.Background(), harness(), evoKeys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Infer(context.Background(), harness(), evoKeys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range evoKeys {
		u1, _ := m1.Get(k)
		u2, _ := m2.Get(k)
		if !u1.Equal(u2) {
			t.Fatalf("seeded run not deterministic for %s: %v vs %v", k, u1, u2)
		}
	}
}

func TestMutateKeepsMappingValid(t *testing.T) {
	cfg := DefaultConfig()
	m, err := Infer(context.Background(), harness(), evoKeys[:2], Config{Population: 10, Generations: 5, MaxUops: 2, PairSamples: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = cfg
}

// TestInferCanceled proves a cancelled context stops the measurement
// phase before any processor call.
func TestInferCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := harness()
	if _, err := Infer(ctx, h, evoKeys, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := h.Metrics().ProcessorCalls; n != 0 {
		t.Fatalf("%d processor calls after cancellation, want 0", n)
	}
}
