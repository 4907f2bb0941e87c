package eval

import (
	"context"
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

// truthPredictor predicts with the compiled ground-truth mapping
// under the Zen+ Rmax of 5.
func truthPredictor(t *testing.T) *MappingPredictor {
	t.Helper()
	c, err := portmodel.CompileMapping(db.Truth(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &MappingPredictor{Label: "truth", Compiled: c, Rmax: 5}
}

var keys = []string{
	"add GPR[32], GPR[32]",
	"vpor XMM, XMM, XMM",
	"vpaddd XMM, XMM, XMM",
	"vminps XMM, XMM, XMM",
	"mov GPR[32], MEM[32]",
	"vpslld XMM, XMM, XMM",
	"add GPR[32], MEM[32]",
}

func TestSampleBlocksDeterministic(t *testing.T) {
	h := harness()
	b1, err := SampleBlocks(context.Background(), h, keys, 20, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := SampleBlocks(context.Background(), h, keys, 20, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != 20 || len(b2) != 20 {
		t.Fatalf("lengths %d/%d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i].Exp.String() != b2[i].Exp.String() || b1[i].IPC != b2[i].IPC {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
	for _, b := range b1 {
		if b.Exp.Len() != 5 {
			t.Fatalf("block length %d", b.Exp.Len())
		}
		if b.IPC <= 0 || b.IPC > 5.01 {
			t.Fatalf("implausible IPC %v", b.IPC)
		}
	}
}

func TestEvaluatePerfectPredictor(t *testing.T) {
	h := harness()
	blocks, err := SampleBlocks(context.Background(), h, keys, 50, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The ground-truth mapping with the Rmax cap is essentially a
	// perfect predictor on the anomaly-free machine.
	truth := truthPredictor(t)
	res, err := Evaluate(blocks, []Predictor{truth}, 5.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	r := res[0]
	if r.MAPE > 0.01 {
		t.Fatalf("perfect predictor MAPE %v", r.MAPE)
	}
	if r.Pearson < 0.99 || r.Kendall < 0.95 {
		t.Fatalf("perfect predictor correlations %v/%v", r.Pearson, r.Kendall)
	}
	if r.Heatmap.Total() != len(blocks) {
		t.Fatalf("heatmap holds %d of %d", r.Heatmap.Total(), len(blocks))
	}
}

func TestEvaluateBadPredictorScoresWorse(t *testing.T) {
	h := harness()
	blocks, err := SampleBlocks(context.Background(), h, keys, 50, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	constPred := &FuncPredictor{Label: "const", Fn: func(e portmodel.Experiment) (float64, error) {
		return 1.0, nil
	}}
	truth := truthPredictor(t)
	res, err := Evaluate(blocks, []Predictor{truth, constPred}, 5.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].MAPE <= res[0].MAPE {
		t.Fatalf("constant predictor (%v) should be worse than truth (%v)", res[1].MAPE, res[0].MAPE)
	}
	table := FormatTable(res)
	if len(table) == 0 {
		t.Fatal("empty table")
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(nil, nil, 5, 10); err == nil {
		t.Fatal("empty blocks accepted")
	}
	if _, err := SampleBlocks(context.Background(), harness(), nil, 5, 5, 1); err == nil {
		t.Fatal("empty key set accepted")
	}
}
