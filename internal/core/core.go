// Package core implements the paper's primary contribution: the full
// port-mapping inference pipeline of Ritter & Hack (ASPLOS 2024) for
// processors without per-port µop counters.
//
// The pipeline has four stages, mirroring Section 4 of the paper:
//
//  1. benchmark every instruction scheme individually, count its ops
//     with the (macro-op-counting) "Retired Uops" counter, apply the
//     macro-op→µop postulate, and identify single-µop blocking
//     instruction candidates (§3.2 steps 1–2, §4.1);
//  2. filter equivalent blocking candidates via throughput
//     additivity, leaving one blocking instruction per port set
//     (§3.2 step 3, §4.2);
//  3. infer the port mapping of the blocking instructions with the
//     counter-example-guided algorithm over the SMT-style solver
//     (§3.3, §4.3), isolating instructions that make the model
//     unsatisfiable;
//  4. characterize every remaining instruction against the blocking
//     suite using throughput differences instead of per-port
//     counters (§3.1, §4.4), with majority voting over repeated
//     runs.
//
// Every inferred fact carries witness experiments, preserving the
// paper's explainability property.
package core

import (
	"context"
	"fmt"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
	"zenport/internal/smt"
)

// ExclusionReason says why a scheme left the pipeline.
type ExclusionReason string

// Exclusion reasons, ordered by pipeline stage.
const (
	ExclControlFlow    ExclusionReason = "control flow (removed up front)"
	ExclSystem         ExclusionReason = "system instruction (removed up front)"
	ExclInputDependent ExclusionReason = "input-dependent performance (removed up front)"
	ExclUnstableAlone  ExclusionReason = "unstable measurements when executed alone (§4.1.2)"
	ExclIrregularTP    ExclusionReason = "throughput outside the port mapping model (§4.1.2)"
	ExclUnstablePaired ExclusionReason = "unstable or contradictory measurements when paired (§4.2)"
	ExclCEGARAnomaly   ExclusionReason = "makes the blocking-instruction model UNSAT (§4.3)"
	ExclCharUnstable   ExclusionReason = "characterization runs disagree or leave the model (§4.4)"
)

// Witness is one explanatory microbenchmark: the experiment, its
// measured inverse throughput, and what it establishes.
type Witness struct {
	Exp    portmodel.Experiment `json:"exp"`
	TInv   float64              `json:"t_inv"`
	Claim  string               `json:"claim"`
	TOther float64              `json:"t_other,omitempty"`
}

// SchemeInfo is the stage-1 record of one scheme.
type SchemeInfo struct {
	Scheme isa.Scheme
	// OpsMeasured is the per-instruction reading of the op counter
	// (macro-ops on Zen+).
	OpsMeasured float64
	// UopsPostulated applies the §4.1.1 macro-op→µop postulate.
	UopsPostulated int
	// TInv is the single-instruction inverse throughput.
	TInv float64
	// PortCount is round(1/TInv) for single-µop candidates.
	PortCount int
	// NoPorts marks nop-like and eliminated-mov schemes.
	NoPorts bool
	// Candidate marks blocking-instruction candidates.
	Candidate bool
}

// BlockClass is one equivalence class of blocking instructions
// (a row of Table 1).
type BlockClass struct {
	// Rep is the representative blocking instruction.
	Rep string
	// PortCount is the number of ports of the class µop.
	PortCount int
	// Members are all candidates found equivalent to Rep (including
	// Rep itself).
	Members []string
	// Ports is the inferred port set (filled by the CEGAR stage;
	// zero until then).
	Ports portmodel.PortSet
	// Witnesses justify the class memberships.
	Witnesses []Witness
}

// Report is the complete pipeline output.
type Report struct {
	// InitialSchemes is the number of schemes before any filtering.
	InitialSchemes int
	// Excluded maps scheme keys to the reason they left the
	// pipeline.
	Excluded map[string]ExclusionReason
	// Info holds the stage-1 records of all measured schemes.
	Info map[string]*SchemeInfo
	// Candidates is the number of blocking-instruction candidates
	// after stage 1.
	Candidates int
	// CandidatesFiltered is the number remaining after stage 2.
	CandidatesFiltered int
	// Classes are the blocking classes of Table 1.
	Classes []BlockClass
	// BlockerMapping is the CEGAR result over the blocking
	// instructions (Table 2), including improper blockers.
	BlockerMapping *portmodel.Mapping
	// CEGARWitnesses are the experiments generated by Algorithm 2.
	CEGARWitnesses []Witness
	// CEGARRounds counts counter-example iterations.
	CEGARRounds int
	// AnomalousBlockers are the §4.3 exclusions (imul, vpmuldq,
	// vmovd on Zen+).
	AnomalousBlockers []string
	// Characterized maps each remaining scheme to its inferred port
	// usage.
	Characterized map[string]portmodel.Usage
	// Spurious lists schemes whose inferred µops exceed the counted
	// ops — the microcode-sequencer artifact of §4.4.
	Spurious []string
	// CharWitnesses holds per-scheme witness experiments from
	// stage 4.
	CharWitnesses map[string][]Witness
	// Final is the complete inferred port mapping: blocking
	// instructions, characterized schemes, and no-port schemes.
	Final *portmodel.Mapping
	// Degraded lists the low-confidence measurements the run proceeded
	// with (graceful degradation instead of aborting), sorted by
	// canonical experiment key.
	Degraded []DegradedMeasurement
	// Supervision aggregates the solver telemetry and the recovery
	// actions (UNSAT cores, relaxations) of the SMT stages. Nil when
	// the run never reached stage 3.
	Supervision *SupervisionSummary `json:"supervision,omitempty"`
	// Unresolved lists scheme keys whose port usage the run could not
	// establish — solver budget exhaustion, unrecoverable
	// inconsistency, a missing blocking suite, or characterization
	// votes that never agreed. They are absent from Final rather than
	// wrong, and a resumed run retries exactly these schemes. Sorted.
	Unresolved []string `json:"unresolved,omitempty"`
	// Relaxed lists scheme keys that appear in experiments whose error
	// bounds the supervision relaxed: their facts rest on widened
	// tolerances and deserve the same suspicion as Degraded entries.
	// Sorted.
	Relaxed []string `json:"relaxed,omitempty"`
}

// SupervisionSummary is the run-level record of the solver
// supervision: how much solver work the SMT stages did and what the
// inconsistency recovery had to touch.
type SupervisionSummary struct {
	// Solver totals the CDCL and DPLL(T) counters over every SMT
	// query of the run.
	Solver smt.QueryStats `json:"solver"`
	// Cores lists every minimal conflicting experiment core the
	// recovery extracted, as canonical experiment keys.
	Cores [][]string `json:"cores,omitempty"`
	// Relaxations lists the error-bound relaxations in order.
	Relaxations []smt.Relaxation `json:"relaxations,omitempty"`
	// BudgetStops counts pipeline decision points (CEGAR refinement,
	// uniqueness search) abandoned because the solver budget ran out.
	BudgetStops int `json:"budget_stops,omitempty"`
}

// DegradedMeasurement is one measurement that missed the engine's
// quality target even after quarantine. Its value was still used —
// the robustness contract is that no fault class does worse than a
// flagged measurement — but consumers of the report should treat the
// facts it supports with suspicion.
type DegradedMeasurement struct {
	// Key is the canonical experiment key ("n*scheme|m*scheme").
	Key string
	// Quality is the measurement's confidence record.
	Quality engine.Quality
}

// Supported returns the number of schemes in the final mapping.
func (r *Report) Supported() int {
	if r.Final == nil {
		return 0
	}
	return len(r.Final.Usage)
}

// The paper's pipeline parameters, fixed for every run. The port
// count is not among them: it is the processor's (NumPorts).
const (
	// maxExpDistinct and maxExpTotal bound the distinguishing-
	// experiment search (§3.3.4's stratification; the paper's
	// experiments used up to five instructions).
	maxExpDistinct = 3
	maxExpTotal    = 5
	// maxCandidates bounds the consistent mappings examined per
	// findOtherMapping call.
	maxCandidates = 40
	// maxCEGARRounds bounds Algorithm 2 iterations.
	maxCEGARRounds = 120
	// characterizeRuns is the number of independent stage-4 runs for
	// majority voting (paper: 3).
	characterizeRuns = 3
	// spreadThreshold flags a measurement as unstable when the
	// relative spread across repetitions exceeds it.
	spreadThreshold = 0.10
)

// preferredReps lists scheme keys preferred as class representatives
// (the paper selected Table 1's representatives manually "for
// clarity").
var preferredReps = []string{
	"add GPR[32], GPR[32]",
	"vpor XMM, XMM, XMM",
	"vpaddd XMM, XMM, XMM",
	"vminps XMM, XMM, XMM",
	"vbroadcastss XMM, XMM",
	"vpaddsw XMM, XMM, XMM",
	"vaddps XMM, XMM, XMM",
	"mov GPR[32], MEM[32]",
	"vpslld XMM, XMM, XMM",
	"vpmuldq XMM, XMM, XMM",
	"imul GPR[32], GPR[32]",
	"vroundps XMM, XMM, IMM[8]",
	"vmovd XMM, GPR[32]",
}

// improperBlockers are the manually added multi-µop blocking
// instructions of §4.3 (stores have no single-µop blocking
// instruction). Each is constrained to two µops, one of which equals a
// proper blocker's µop. Stage 4 blocks the store port with the first.
var improperBlockers = []string{
	"mov MEM[32], GPR[32]",
	"vmovapd MEM[128], XMM",
}

// Options tunes the pipeline.
type Options struct {
	// Epsilon is the CPI equality tolerance (paper: 0.02).
	Epsilon float64
	// SolverBudget is the per-query CDCL work limit: every SMT query
	// of stage 3 (findMapping, findOtherMapping, core extraction) runs
	// under a fresh copy of this template, so one pathological query
	// cannot hang the pipeline. The zero value means unlimited. On
	// exhaustion the stage degrades — last consistent mapping, schemes
	// flagged Unresolved — instead of aborting.
	SolverBudget sat.Budget
	// MaxSlack enables UNSAT-core inconsistency recovery in stage 3:
	// when the experiment set is infeasible, the minimal conflicting
	// core is extracted and its least-trustworthy measurement is
	// re-measured and granted up to this much extra tolerance
	// (fraction of |e|, added to Epsilon). 0 — the default — disables
	// recovery, preserving the §4.3 anomaly-isolation behavior
	// exactly.
	MaxSlack float64
	// Checkpointer, if non-nil, persists the pipeline's progress after
	// each completed stage and each completed stage-4 run, so an
	// interrupted run can be resumed.
	Checkpointer *persist.Checkpointer
	// Resume restores completed stages from the checkpoint instead of
	// re-running them. Without it, existing checkpoints are cleared at
	// the start of the run.
	Resume bool
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{Epsilon: 0.02}
}

// answerKey renders the options that change the pipeline's answer as
// one canonical string: ε, read from stage 1 on, and the solver budget
// and MaxSlack of stage 3. The checkpoint stores it, and a resume
// under a different key starts over. The other fields are
// answer-neutral; TestOptionsAnswerKeyCoversEveryField keeps the two
// lists complete.
func (o Options) answerKey() string {
	b := o.SolverBudget
	return fmt.Sprintf("epsilon=%v max-slack=%v budget=%d/%d/%d deadline=%t",
		o.Epsilon, o.MaxSlack, b.MaxConflicts, b.MaxPropagations, b.MaxDecisions, !b.Deadline.IsZero())
}

// Pipeline runs the inference.
type Pipeline struct {
	H       *engine.Engine
	Schemes []isa.Scheme
	Opts    Options
}

// NewPipeline builds a pipeline measuring through h over a scheme
// list.
func NewPipeline(h *engine.Engine, schemes []isa.Scheme, opts Options) *Pipeline {
	return &Pipeline{H: h, Schemes: schemes, Opts: opts}
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.Opts.Log != nil {
		p.Opts.Log(format, args...)
	}
}

// Run executes all four stages without a deadline.
func (p *Pipeline) Run() (*Report, error) {
	return p.RunContext(context.Background())
}

// RunContext executes all four stages, submitting measurements in
// batches to the harness's engine and stopping early (with an error
// wrapping ctx.Err()) when ctx is cancelled. With a checkpointer
// configured, each completed stage is checkpointed; with Resume set,
// the run restarts after the last completed step instead of stage 1.
func (p *Pipeline) RunContext(ctx context.Context) (*Report, error) {
	rep := &Report{
		InitialSchemes: len(p.Schemes),
		Excluded:       make(map[string]ExclusionReason),
		Info:           make(map[string]*SchemeInfo),
		Characterized:  make(map[string]portmodel.Usage),
		CharWitnesses:  make(map[string][]Witness),
	}
	start := 1
	var votes []map[string]charRunRecord
	if p.Opts.Checkpointer != nil {
		if p.Opts.Resume {
			done, v, err := p.restore(rep)
			if err != nil {
				return nil, err
			}
			if done > 0 {
				p.logf("resume: restored pipeline state through stage %d", done)
			}
			start, votes = done+1, v
		} else if err := p.Opts.Checkpointer.Clear(); err != nil {
			return nil, fmt.Errorf("core: clearing stale checkpoints: %w", err)
		}
	}
	if start <= 1 {
		if err := p.stage1(ctx, rep); err != nil {
			return nil, fmt.Errorf("core: stage 1: %w", err)
		}
		p.logf("stage 1: %d schemes measured, %d candidates, %d excluded",
			len(rep.Info), rep.Candidates, len(rep.Excluded))
		if err := p.save(1, rep, nil); err != nil {
			return nil, err
		}
	}
	if start <= 2 {
		if err := p.stage2(ctx, rep); err != nil {
			return nil, fmt.Errorf("core: stage 2: %w", err)
		}
		p.logf("stage 2: %d blocking classes from %d candidates", len(rep.Classes), rep.CandidatesFiltered)
		if err := p.save(2, rep, nil); err != nil {
			return nil, err
		}
	}
	if start <= 3 {
		if err := p.stage3(ctx, rep); err != nil {
			return nil, fmt.Errorf("core: stage 3 (CEGAR): %w", err)
		}
		p.logf("stage 3: blocker mapping over %d instructions after %d rounds (%d anomalous excluded)",
			len(rep.BlockerMapping.Usage), rep.CEGARRounds, len(rep.AnomalousBlockers))
		if err := p.save(3, rep, nil); err != nil {
			return nil, err
		}
	}
	if start <= 4 {
		if err := p.stage4(ctx, rep, votes); err != nil {
			return nil, fmt.Errorf("core: stage 4: %w", err)
		}
		p.logf("stage 4: %d schemes characterized, %d spurious, final mapping covers %d schemes",
			len(rep.Characterized), len(rep.Spurious), rep.Supported())
		p.fillDegraded(rep)
		if err := p.save(4, rep, nil); err != nil {
			return nil, err
		}
	}
	if start > 4 && p.Opts.Resume && len(rep.Unresolved) > 0 {
		// The previous run finished degraded. Retry exactly the
		// unresolved schemes with fresh measurements; everything
		// already resolved is left untouched.
		if err := p.retryUnresolved(ctx, rep); err != nil {
			return nil, fmt.Errorf("core: retrying unresolved schemes: %w", err)
		}
		p.fillDegraded(rep)
		if err := p.save(4, rep, nil); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// retryGenBase namespaces the measurement-cache generations of the
// unresolved-scheme retry passes away from the regular stage-4 runs
// (0..characterizeRuns-1), so the retry gets fresh measurements while
// still being deterministic — and cache-warm — across repeated resumes.
const retryGenBase = 1000

// retryUnresolved re-characterizes the schemes a previous, degraded
// run left unresolved. Schemes that win the majority vote this time
// move into the final mapping and drop their Unresolved (and
// char-unstable Excluded) flags; the rest stay flagged for the next
// resume. Blocker keys unresolved by a budget-starved stage 3 are not
// retried here — the blocker mapping itself is fixed by the
// checkpoint — and stay listed.
func (p *Pipeline) retryUnresolved(ctx context.Context, rep *Report) error {
	blockers := p.stage4Blockers(rep)
	if len(blockers) == 0 {
		p.logf("resume: %d unresolved scheme(s), but still no usable blocking suite; leaving them unresolved", len(rep.Unresolved))
		return nil
	}
	blockerSet := blockerKeys(blockers)
	var todo []string
	for _, key := range rep.Unresolved {
		if p.characterizable(rep, blockerSet, key) {
			todo = append(todo, key)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	p.logf("resume: retrying %d unresolved scheme(s) with %d fresh characterization run(s)", len(todo), characterizeRuns)
	results := make(map[string][]runResult, len(todo))
	for r := 0; r < characterizeRuns; r++ {
		if err := p.characterizeRun(ctx, rep, todo, blockers, results, uint64(retryGenBase+r), r == 0); err != nil {
			return err
		}
	}
	failed := map[string]bool{}
	for _, key := range p.voteCharacterization(rep, todo, results) {
		failed[key] = true
	}
	retried := map[string]bool{}
	for _, key := range todo {
		retried[key] = true
	}
	var still []string
	resolved := 0
	for _, key := range rep.Unresolved {
		if !retried[key] || failed[key] {
			still = append(still, key)
			continue
		}
		resolved++
		if rep.Excluded[key] == ExclCharUnstable {
			delete(rep.Excluded, key)
		}
		rep.Final.Set(key, rep.Characterized[key])
	}
	sort.Strings(still)
	rep.Unresolved = still
	p.logf("resume: resolved %d of %d retried scheme(s); %d still unresolved", resolved, len(todo), len(rep.Unresolved))
	return nil
}

// fillDegraded collects the engine's low-confidence registry into the
// report, sorted by key for stable output. Warmed cache entries are
// included, so a resumed run reports the degradations of the
// interrupted one too.
func (p *Pipeline) fillDegraded(rep *Report) {
	lc := p.H.LowConfidence()
	rep.Degraded = nil
	if len(lc) == 0 {
		return
	}
	keys := make([]string, 0, len(lc))
	for k := range lc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	worst := 0.0
	for _, k := range keys {
		q := lc[k]
		rep.Degraded = append(rep.Degraded, DegradedMeasurement{Key: k, Quality: q})
		if q.Spread > worst {
			worst = q.Spread
		}
	}
	p.logf("degraded: proceeding with %d low-confidence measurement(s), worst spread %.3f",
		len(rep.Degraded), worst)
}

// appendUnique appends k to list only if absent. Unresolved/Relaxed
// lists stay small (a handful of schemes), so linear scan is fine.
func appendUnique(list []string, k string) []string {
	for _, v := range list {
		if v == k {
			return list
		}
	}
	return append(list, k)
}
