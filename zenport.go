// Package zenport is a Go implementation of "Explainable Port Mapping
// Inference with Sparse Performance Counters for AMD's Zen
// Architectures" (Ritter & Hack, ASPLOS 2024).
//
// It provides:
//
//   - the formal port mapping model with exact steady-state
//     throughput semantics (Mapping, Experiment, Usage);
//   - a simulated AMD Zen+ machine with the paper's documented
//     counter quirks and performance anomalies (NewZenMachine), which
//     substitutes for the Ryzen 5 2600X test system of the case
//     study;
//   - a nanoBench-style measurement harness (NewHarness);
//   - the paper's four-stage inference pipeline (Infer), producing a
//     port mapping with witness experiments and no per-port µop
//     counters;
//   - the solver-level findMapping/findOtherMapping queries
//     (NewInstance) for custom counter-example-guided loops;
//   - the comparison baselines of Section 4.5 (subpackages of
//     internal/baseline, surfaced through cmd/zeneval).
//
// See examples/quickstart for a guided tour and DESIGN.md for the
// full system inventory.
package zenport

import (
	"context"

	"zenport/internal/chaos"
	"zenport/internal/core"
	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
	"zenport/internal/serve"
	"zenport/internal/smt"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

// Re-exported model types.
type (
	// PortSet is a bitmask of execution ports.
	PortSet = portmodel.PortSet
	// Uop is a µop kind: admissible ports and multiplicity.
	Uop = portmodel.Uop
	// Usage is an instruction's µop decomposition.
	Usage = portmodel.Usage
	// Mapping is a port mapping over instruction scheme keys.
	Mapping = portmodel.Mapping
	// Experiment is a dependency-free instruction multiset.
	Experiment = portmodel.Experiment
	// CompiledMapping is a mapping compiled for repeated throughput
	// evaluation: scheme keys interned to dense indices, µops packed
	// flat, zero steady-state allocations per query. Results are
	// bit-identical to the Mapping methods.
	CompiledMapping = portmodel.Compiled

	// Scheme is an x86-64 instruction scheme.
	Scheme = isa.Scheme

	// Processor abstracts a machine under measurement.
	Processor = engine.Processor
	// Counters are raw performance-counter readings.
	Counters = engine.Counters
	// Engine is the batch measurement engine: worker pool,
	// canonical-key cache, in-flight deduplication, bounded retry,
	// and cancellation.
	Engine = engine.Engine
	// EngineMetrics is a snapshot of the engine's counters.
	EngineMetrics = engine.Metrics
	// MeasureResult is a processed measurement for one experiment.
	MeasureResult = engine.Result
	// Quality is the confidence record of one measurement (kept and
	// rejected samples, robust spread, low-confidence flag).
	Quality = engine.Quality

	// ChaosRegime configures deterministic fault injection.
	ChaosRegime = chaos.Regime
	// ChaosProcessor wraps a Processor in a seeded fault regime.
	ChaosProcessor = chaos.Processor
	// ChaosLedger counts injected faults per class.
	ChaosLedger = chaos.Ledger

	// SimConfig configures the simulated Zen+ machine.
	SimConfig = zensim.Config
	// Machine is the simulated Zen+ processor.
	Machine = zensim.Machine

	// Options tunes the inference pipeline.
	Options = core.Options
	// Report is the full pipeline output (funnel, Table 1 classes,
	// Table 2 mapping, witnesses, final mapping).
	Report = core.Report
	// Witness is one explanatory microbenchmark.
	Witness = core.Witness
	// BlockClass is a blocking-instruction equivalence class.
	BlockClass = core.BlockClass
	// DegradedMeasurement is one low-confidence measurement the
	// pipeline proceeded with.
	DegradedMeasurement = core.DegradedMeasurement

	// Instance is a findMapping/findOtherMapping problem.
	Instance = smt.Instance
	// UopSpec declares one µop of an Instance.
	UopSpec = smt.UopSpec
	// MeasuredExp pairs an experiment with its measured inverse
	// throughput.
	MeasuredExp = smt.MeasuredExp

	// SolverBudget bounds one CDCL solver query (conflicts,
	// propagations, decisions, wall deadline); the zero value is
	// unlimited. Set Options.SolverBudget to supervise the pipeline's
	// queries.
	SolverBudget = sat.Budget
	// SolverStats is a snapshot of the CDCL solver's work counters.
	SolverStats = sat.Stats
	// QueryStats aggregates solver telemetry across the theory-solver
	// queries of a pipeline run or Instance.
	QueryStats = smt.QueryStats
	// Relaxation records one error-bound relaxation performed by
	// UNSAT-core recovery on an inconsistent measurement.
	Relaxation = smt.Relaxation
	// SupervisionSummary is the run-level solver supervision report:
	// telemetry, extracted inconsistency cores, relaxations, and
	// budget stops.
	SupervisionSummary = core.SupervisionSummary

	// CacheStore is the crash-safe on-disk measurement cache
	// (append-only journal + atomic snapshot) attachable to an Engine.
	CacheStore = persist.Store
	// Checkpointer persists pipeline stage outcomes for -resume.
	Checkpointer = persist.Checkpointer
	// CacheLock is an exclusive advisory lock on a cache directory,
	// released automatically by the kernel if the process dies.
	CacheLock = persist.FileLock

	// MappingServer is the HTTP/JSON handler serving loaded port
	// mappings: throughput predictions bit-identical to the batch
	// evaluator, per-scheme explanations with bottleneck witnesses, and
	// mapping diffs. cmd/zenportd is a thin wrapper around it.
	MappingServer = serve.Server
	// MappingServerConfig tunes a MappingServer (rmax, prediction LRU
	// size, request body cap, admission gate, logging).
	MappingServerConfig = serve.Config
	// ReloadResult reports a completed hot mapping reload (generation,
	// content fingerprint, whether the prediction cache was retained).
	ReloadResult = serve.ReloadResult
)

// MakePortSet builds a PortSet from port indices.
func MakePortSet(ports ...int) PortSet { return portmodel.MakePortSet(ports...) }

// NewMapping creates an empty mapping over numPorts ports.
func NewMapping(numPorts int) *Mapping { return portmodel.NewMapping(numPorts) }

// Exp builds an experiment from instruction keys (repetitions allowed).
func Exp(keys ...string) Experiment { return portmodel.Exp(keys...) }

// CompileMapping compiles a mapping for repeated throughput queries
// (predictions over many blocks, model-vs-model sweeps). The universe
// fixes the scheme-index order; nil uses the mapping's sorted keys.
// Compile once, query many times: the compiled evaluator answers
// InverseThroughput/IPC with zero steady-state allocations and
// bit-identical results to the Mapping methods.
func CompileMapping(m *Mapping, universe []string) (*CompiledMapping, error) {
	return portmodel.CompileMapping(m, universe)
}

// NewMappingServer returns an http.Handler serving port mappings.
// Load every mapping before serving; handlers are then safe for
// concurrent use and answer with bits identical to the batch
// evaluator over the same mapping and rmax.
func NewMappingServer(cfg MappingServerConfig) *MappingServer { return serve.New(cfg) }

// ParseKernel parses the CLI kernel syntax "N*key; M*key" (the format
// zenmap -predict and the serving API accept) into an experiment.
func ParseKernel(s string) (Experiment, error) { return serve.ParseKernel(s) }

// ZenDB builds the Zen+ instruction scheme database with ground
// truth (1,100+ schemes).
func ZenDB() *zen.DB { return zen.Build() }

// ZenSchemes returns the isa.Scheme list of the Zen+ database, the
// input to Infer.
func ZenSchemes(db *zen.DB) []Scheme {
	specs := db.Specs()
	out := make([]Scheme, 0, len(specs))
	for _, sp := range specs {
		out = append(out, sp.Scheme)
	}
	return out
}

// NewZenMachine builds a simulated Zen+ processor over the database.
func NewZenMachine(db *zen.DB, cfg SimConfig) *Machine { return zensim.NewMachine(db, cfg) }

// Harness is the measurement harness (median-of-11, result cache):
// the batch engine, with a call-at-a-time InvThroughput for the
// examples. Everything else — Measure, MeasureBatch, Workers, Metrics
// — is the embedded Engine's.
type Harness struct{ *Engine }

// NewHarness builds a measurement harness with the paper's
// parameters (median of 11 repetitions) and a GOMAXPROCS-sized worker
// pool.
func NewHarness(p Processor) *Harness { return &Harness{Engine: engine.New(p)} }

// InvThroughput measures the experiment without a deadline and
// returns its median inverse throughput.
func (h *Harness) InvThroughput(e Experiment) (float64, error) {
	r, err := h.Measure(context.Background(), e)
	if err != nil {
		return 0, err
	}
	return r.InvThroughput, nil
}

// DefaultOptions returns the paper's pipeline parameters.
func DefaultOptions() Options { return core.DefaultOptions() }

// Fingerprinter identifies a measurement-relevant configuration: the
// simulated machine and the chaos wrapper both implement it.
type Fingerprinter interface{ Fingerprint() string }

// RunFingerprint identifies a (processor, engine) measurement
// configuration for the persistence layer. Persisted measurements and
// checkpoints written under a different fingerprint are stale and are
// invalidated rather than reused. The worker count is deliberately
// not part of the fingerprint: results are byte-identical at every
// worker count. Pass the outermost processor (the chaos wrapper when
// fault injection is on): corrupted measurements must never be served
// to a fault-free run.
func RunFingerprint(p Fingerprinter, eng *Engine) string {
	return p.Fingerprint() + "|" + eng.Fingerprint()
}

// WrapChaos wraps a processor in a deterministic, seeded fault-
// injection regime. The wrapped processor derives a fault plan per
// (seed, kernel, execution index), so injected faults are reproducible
// at any worker count and across kill-and-resume.
func WrapChaos(p Processor, seed int64, regime ChaosRegime) *ChaosProcessor {
	return chaos.New(p, seed, regime)
}

// DefaultChaosRegime is the documented soak regime: ≈2% transient
// errors, rare short hangs, 1% 10× outlier spikes, 0.5% stuck
// counters.
func DefaultChaosRegime() ChaosRegime { return chaos.DefaultRegime() }

// OpenCache opens (or creates) a crash-safe measurement cache
// directory under the given configuration fingerprint.
func OpenCache(dir, fingerprint string) (*CacheStore, error) {
	return persist.Open(dir, fingerprint)
}

// NewCheckpointer returns a stage checkpointer rooted inside the
// cache directory.
func NewCheckpointer(dir, fingerprint string) (*Checkpointer, error) {
	return persist.NewCheckpointer(dir, fingerprint)
}

// LockCacheDir takes the exclusive advisory lock of a cache directory
// (creating it if needed). A second process opening the same directory
// fails fast with a diagnostic instead of interleaving journal writes.
func LockCacheDir(dir string) (*CacheLock, error) {
	return persist.LockDir(dir)
}

// ErrBudgetExhausted reports that a solver query stopped because its
// SolverBudget ran out. The pipeline handles it internally by
// degrading; it surfaces only from direct Instance queries.
var ErrBudgetExhausted = sat.ErrBudgetExhausted

// Infer runs the full four-stage inference pipeline of the paper
// over the given schemes, measuring through the harness.
func Infer(h *Harness, schemes []Scheme, opts Options) (*Report, error) {
	return core.NewPipeline(h.Engine, schemes, opts).Run()
}

// InferContext is Infer with cancellation: measurement batches and
// solver queries stop promptly when ctx fires, and the error wraps
// ctx.Err().
func InferContext(ctx context.Context, h *Harness, schemes []Scheme, opts Options) (*Report, error) {
	return core.NewPipeline(h.Engine, schemes, opts).RunContext(ctx)
}
