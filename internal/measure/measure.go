// Package measure is the microbenchmarking harness of the
// reproduction, playing the role of nanoBench (Abel & Reineke 2020)
// in the paper's case study: it executes steady-state kernels on a
// Processor, repeats each measurement and takes the median, converts
// raw counters into inverse throughput and per-instruction op counts.
//
// Since the batch-engine refactor, the harness is a thin
// compatibility wrapper over internal/engine, which owns the worker
// pool, the canonical-key cache, in-flight deduplication, retry, and
// metrics. Harness keeps the call-at-a-time interface that the
// examples use.
package measure

import (
	"context"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// Counters are the raw performance-counter readings of one kernel
// run; see engine.Counters.
type Counters = engine.Counters

// Processor abstracts the machine under measurement; see
// engine.Processor.
type Processor = engine.Processor

// Result is a processed measurement for one experiment; see
// engine.Result.
type Result = engine.Result

// Quality is the confidence record of one measurement; see
// engine.Quality.
type Quality = engine.Quality

// ContextProcessor is the optional cancellable-execution extension of
// Processor; see engine.ContextProcessor.
type ContextProcessor = engine.ContextProcessor

// Harness runs measurements with repetition and caching. It embeds
// the batch engine, so engine configuration (P, Workers) and
// batch methods (MeasureBatch, Metrics, ClearCache, MeasurementCount)
// are available directly.
type Harness struct {
	*engine.Engine
}

// NewHarness returns a harness with the paper's parameters: the median
// of 11 runs of 100 kernel iterations.
func NewHarness(p Processor) *Harness {
	return &Harness{Engine: engine.New(p)}
}

// Measure runs the experiment engine.Reps times and returns the processed
// median result. Results are cached per experiment. It is the
// context-free form of Engine.Measure.
func (h *Harness) Measure(e portmodel.Experiment) (Result, error) {
	return h.Engine.Measure(context.Background(), e)
}

// InvThroughput is a convenience wrapper returning only the median
// inverse throughput of the experiment.
func (h *Harness) InvThroughput(e portmodel.Experiment) (float64, error) {
	r, err := h.Measure(e)
	if err != nil {
		return 0, err
	}
	return r.InvThroughput, nil
}
