// Package eval reproduces the accuracy evaluation of Section 4.5 /
// Figure 5 of Ritter & Hack (ASPLOS 2024): random dependency-free
// basic blocks of five instructions are benchmarked on the (simulated)
// Zen+ machine, every model predicts their IPC, and the predictions
// are compared via MAPE, Pearson correlation, and Kendall's τ, plus
// predicted-vs-measured heatmaps.
package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/stats"
)

// Predictor predicts the IPC of a dependency-free instruction
// sequence. The three contenders of Figure 5 all implement it.
type Predictor interface {
	Name() string
	PredictIPC(e portmodel.Experiment) (float64, error)
}

// MappingPredictor predicts with a port mapping (ours or PMEvo's)
// with the Rmax bottleneck applied, as the paper does for its own
// model. Predictions run through the mapping's compiled evaluator
// (portmodel.CompileMapping) and are bit-identical to Mapping.IPC.
type MappingPredictor struct {
	Label    string
	Compiled *portmodel.Compiled
	// Rmax caps the IPC (0 = no cap; the paper does not cap PMEvo).
	Rmax float64
}

// Name returns the predictor label.
func (p *MappingPredictor) Name() string { return p.Label }

// PredictIPC implements Predictor.
func (p *MappingPredictor) PredictIPC(e portmodel.Experiment) (float64, error) {
	return p.Compiled.IPC(e, p.Rmax)
}

// FuncPredictor adapts a prediction function (used for the
// Palmed-style conjunctive model).
type FuncPredictor struct {
	Label string
	Fn    func(e portmodel.Experiment) (float64, error)
}

// Name returns the predictor label.
func (p *FuncPredictor) Name() string { return p.Label }

// PredictIPC implements Predictor.
func (p *FuncPredictor) PredictIPC(e portmodel.Experiment) (float64, error) {
	return p.Fn(e)
}

// Block is one evaluation basic block with its measured IPC.
type Block struct {
	Exp portmodel.Experiment
	IPC float64
}

// SampleBlocks generates n random dependency-free blocks of
// blockLen instructions drawn from keys and measures their IPC. The
// block set is generated first — the RNG draw order is independent of
// measurement outcomes — and then measured as one engine batch under
// ctx.
func SampleBlocks(ctx context.Context, g *engine.Engine, keys []string, n, blockLen int, seed int64) ([]Block, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("eval: no schemes to sample from")
	}
	rng := rand.New(rand.NewSource(seed))
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	exps := make([]portmodel.Experiment, n)
	for i := 0; i < n; i++ {
		e := make(portmodel.Experiment)
		for j := 0; j < blockLen; j++ {
			e[sorted[rng.Intn(len(sorted))]]++
		}
		exps[i] = e
	}
	results, err := g.MeasureBatch(ctx, exps)
	if err != nil {
		return nil, err
	}
	blocks := make([]Block, 0, n)
	for i, e := range exps {
		if results[i].InvThroughput <= 0 {
			continue
		}
		blocks = append(blocks, Block{Exp: e, IPC: float64(e.Len()) / results[i].InvThroughput})
	}
	return blocks, nil
}

// ModelResult is one row of Figure 5(a) plus the heatmap of 5(b–d).
type ModelResult struct {
	Name     string
	MAPE     float64
	Pearson  float64
	Kendall  float64
	Heatmap  *stats.Histogram2D
	Failures int // blocks the model could not predict
}

// Evaluate scores every predictor on the blocks. The heatmaps bucket
// measured (x) vs predicted (y) IPC on a 0..ipcMax grid.
func Evaluate(blocks []Block, preds []Predictor, ipcMax float64, bins int) ([]ModelResult, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("eval: no blocks")
	}
	var out []ModelResult
	for _, p := range preds {
		var predV, measV []float64
		hm := stats.NewHistogram2D(ipcMax, ipcMax, bins)
		failures := 0
		for _, b := range blocks {
			ipc, err := p.PredictIPC(b.Exp)
			if err != nil || math.IsInf(ipc, 0) || math.IsNaN(ipc) {
				failures++
				continue
			}
			predV = append(predV, ipc)
			measV = append(measV, b.IPC)
			hm.Add(b.IPC, ipc)
		}
		if len(predV) < 2 {
			return nil, fmt.Errorf("eval: %s predicted too few blocks (%d failures)", p.Name(), failures)
		}
		mape, err := stats.MAPE(predV, measV)
		if err != nil {
			return nil, err
		}
		// Degenerate predictors (constant output) have undefined
		// correlations; report 0 rather than failing the evaluation.
		pcc, err := stats.Pearson(predV, measV)
		if err != nil {
			pcc = 0
		}
		tau, err := stats.KendallTau(predV, measV)
		if err != nil {
			tau = 0
		}
		out = append(out, ModelResult{
			Name: p.Name(), MAPE: mape, Pearson: pcc, Kendall: tau,
			Heatmap: hm, Failures: failures,
		})
	}
	return out, nil
}

// FormatTable renders Figure 5(a): MAPE, PCC, τ_K per model.
func FormatTable(results []ModelResult) string {
	out := fmt.Sprintf("%-12s %8s %8s %8s\n", "", "MAPE", "PCC", "τK")
	for _, r := range results {
		out += fmt.Sprintf("%-12s %7.1f%% %8.2f %8.2f\n", r.Name, r.MAPE*100, r.Pearson, r.Kendall)
	}
	return out
}
