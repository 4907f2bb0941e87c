package smt

import (
	"context"
	"errors"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
)

// slackStep is the tolerance slack one relaxation adds to an
// experiment.
const slackStep = 0.25

// SuperviseOptions configures the supervised findMapping loop.
type SuperviseOptions struct {
	// Budget bounds all solver work of the supervised query, including
	// core extraction and minimization (nil = unlimited).
	Budget *sat.Budget
	// MaxSlack is the largest tolerance slack recovery may grant one
	// experiment. Zero disables recovery entirely: infeasibility then
	// surfaces as ErrNoMapping exactly as an unsupervised query would,
	// preserving the §4.3 anomaly-isolation path.
	MaxSlack float64
	// QualityOf, if non-nil, scores an experiment's measurement
	// quality; higher means less trustworthy (e.g. the engine's robust
	// spread). Recovery relaxes the worst-quality core member first.
	QualityOf func(e portmodel.Experiment) float64
	// Remeasure, if non-nil, re-measures an experiment through the
	// engine and returns its fresh inverse throughput; recovery calls
	// it on each experiment it relaxes, so a transient corruption can
	// heal without any slack doing the work.
	Remeasure func(ctx context.Context, e portmodel.Experiment) (float64, error)
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Relaxation records one recovery action on an experiment.
type Relaxation struct {
	// Key is the canonical experiment key.
	Key string `json:"key"`
	// Slack is the tolerance slack after the relaxation.
	Slack float64 `json:"slack"`
	// OldTInv/NewTInv are the inverse throughputs before and after
	// re-measurement (equal when no re-measurement ran).
	OldTInv float64 `json:"old_t_inv"`
	NewTInv float64 `json:"new_t_inv"`
}

// SupervisionReport is the explainability record of one supervised
// query: which experiment subsets were found conflicting, what was
// relaxed, and how the query ended.
type SupervisionReport struct {
	// Cores lists each extracted conflicting core as canonical
	// experiment keys, in extraction order.
	Cores [][]string `json:"cores,omitempty"`
	// Relaxations lists the recovery actions in order.
	Relaxations []Relaxation `json:"relaxations,omitempty"`
	// BudgetExhausted is set when the solver budget stopped the query.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// Unrecoverable is set when recovery ran out of options: a
	// structural conflict, or every core member already at MaxSlack.
	Unrecoverable bool `json:"unrecoverable,omitempty"`
}

func (o *SuperviseOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// FindMappingSupervised is FindMapping with inconsistency recovery:
// when the experiment set is infeasible it extracts a minimal
// conflicting core, relaxes the error bound of the core's
// least-trustworthy member (re-measuring it when possible), drops the
// now-stale lemmas, and retries with escalating slack up to MaxSlack.
// It returns the mapping, the (possibly relaxed) experiment slice, and
// the supervision report. On failure the error is ErrNoMapping (with
// report.Unrecoverable set) or matches sat.ErrBudgetExhausted; the
// returned experiments always reflect the relaxations applied so far.
func (in *Instance) FindMappingSupervised(ctx context.Context, exps []MeasuredExp, opts SuperviseOptions) (*portmodel.Mapping, []MeasuredExp, *SupervisionReport, error) {
	rep := &SupervisionReport{}
	// Each round raises one experiment's slack by slackStep, so the
	// loop is bounded even before the budget is.
	maxRounds := 1
	if opts.MaxSlack > 0 {
		maxRounds += len(exps) * (int(opts.MaxSlack/slackStep) + 1)
	}
	for round := 0; round < maxRounds; round++ {
		m, err := in.FindMappingBudget(ctx, exps, opts.Budget)
		if err == nil {
			return m, exps, rep, nil
		}
		if errors.Is(err, sat.ErrBudgetExhausted) {
			rep.BudgetExhausted = true
			return nil, exps, rep, err
		}
		if !errors.Is(err, ErrNoMapping) {
			return nil, exps, rep, err
		}
		if opts.MaxSlack <= 0 {
			rep.Unrecoverable = true
			return nil, exps, rep, ErrNoMapping
		}

		core, cerr := in.UnsatCore(ctx, exps, opts.Budget)
		if cerr != nil {
			if errors.Is(cerr, sat.ErrBudgetExhausted) {
				rep.BudgetExhausted = true
			}
			return nil, exps, rep, cerr
		}
		if core == nil {
			// Feasible on re-examination (the earlier failure was a
			// budget artifact); retry the main query.
			continue
		}
		rep.Cores = append(rep.Cores, CoreKeys(exps, core))
		if len(core.Indices) == 0 {
			opts.logf("supervise: conflict is structural (no experiment subset to blame)")
			rep.Unrecoverable = true
			return nil, exps, rep, ErrNoMapping
		}
		opts.logf("supervise: minimal conflicting core (%d exps): %v", len(core.Indices), CoreKeys(exps, core))

		victim := pickVictim(exps, core.Indices, opts)
		if victim < 0 {
			opts.logf("supervise: every core member already at max slack %.3f", opts.MaxSlack)
			rep.Unrecoverable = true
			return nil, exps, rep, ErrNoMapping
		}
		rx := Relaxation{Key: engine.CanonicalKey(exps[victim].Exp), OldTInv: exps[victim].TInv, NewTInv: exps[victim].TInv}
		if opts.Remeasure != nil {
			t, merr := opts.Remeasure(ctx, exps[victim].Exp)
			if merr != nil {
				return nil, exps, rep, merr
			}
			rx.NewTInv = t
			exps[victim].TInv = t
		}
		exps[victim].Slack += slackStep
		if exps[victim].Slack > opts.MaxSlack {
			exps[victim].Slack = opts.MaxSlack
		}
		rx.Slack = exps[victim].Slack
		rep.Relaxations = append(rep.Relaxations, rx)
		dropped := in.DropLemmasFrom(exps[victim].Exp)
		opts.logf("supervise: relaxed %s to slack %.3f (t_inv %.4f -> %.4f, %d stale lemmas dropped)",
			rx.Key, rx.Slack, rx.OldTInv, rx.NewTInv, dropped)
	}
	rep.Unrecoverable = true
	return nil, exps, rep, ErrNoMapping
}

// pickVictim selects the core member to relax: the one whose
// measurement quality is worst (highest QualityOf score), breaking
// ties toward the latest-added experiment (CEGAR witnesses are more
// exotic kernels than the seed singletons) and then the lexicographic
// key, so the choice is deterministic. Members already at MaxSlack are
// skipped; -1 means no member is relaxable.
func pickVictim(exps []MeasuredExp, core []int, opts SuperviseOptions) int {
	cand := append([]int(nil), core...)
	sort.Slice(cand, func(a, b int) bool {
		ia, ib := cand[a], cand[b]
		if opts.QualityOf != nil {
			qa, qb := opts.QualityOf(exps[ia].Exp), opts.QualityOf(exps[ib].Exp)
			if qa != qb {
				return qa > qb
			}
		}
		if ia != ib {
			return ia > ib
		}
		return engine.CanonicalKey(exps[ia].Exp) < engine.CanonicalKey(exps[ib].Exp)
	})
	for _, i := range cand {
		if exps[i].Slack < opts.MaxSlack {
			return i
		}
	}
	return -1
}
