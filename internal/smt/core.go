package smt

import (
	"context"
	"errors"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/sat"
)

// Core is a conflicting subset of a measured experiment set: no port
// mapping satisfies the instance's boolean structure together with
// just these experiments. An empty Indices slice means the boolean
// structure alone (cardinalities, ties) is infeasible — no experiment
// subset is to blame.
type Core struct {
	// Indices are positions into the experiment slice handed to
	// UnsatCore, ascending.
	Indices []int
	// Minimal reports that the core is irreducible: removing any
	// single member makes the remainder feasible. False when the
	// budget ran out mid-minimization (the core is still genuinely
	// conflicting, just possibly shrinkable).
	Minimal bool
}

// UnsatCore explains why FindMapping declared the experiment set
// infeasible: it extracts a conflicting subset of exps and shrinks it
// to a minimal one. The method is two-staged:
//
//  1. A fresh refinement run re-derives the theory lemmas of the
//     conflict; each lemma is then asserted guarded by a selector
//     variable of its source experiment, and the SAT solver's
//     final-conflict assumption analysis yields a sound first
//     candidate (every lemma is a consequence of the theory plus its
//     source experiment, so a selector core is an experiment core).
//  2. The candidate is minimized by deletion with halving chunk
//     sizes, where each feasibility probe is a complete budgeted
//     FindMapping run — the probes are theory-complete, so the final
//     core is minimal with respect to the full theory, not just the
//     lemmas learned so far.
//
// The shared budget covers every solver call of both stages; on
// exhaustion the current (sound, possibly non-minimal) core is
// returned with Minimal=false. A feasible experiment set returns
// (nil, nil).
func (in *Instance) UnsatCore(ctx context.Context, exps []MeasuredExp, budget *sat.Budget) (*Core, error) {
	// Stage 0: confirm infeasibility on a lemma-free clone, keeping
	// the lemmas it learns for the selector pass.
	probe := in.Clone()
	if _, err := probe.FindMappingBudget(ctx, exps, budget); err == nil {
		return nil, nil
	} else if !errors.Is(err, ErrNoMapping) {
		return nil, err
	}

	candidate, err := in.selectorCore(ctx, probe, exps, budget)
	if err != nil {
		if errors.Is(err, sat.ErrBudgetExhausted) && len(candidate) > 0 {
			return &Core{Indices: candidate}, nil
		}
		return nil, err
	}
	if len(candidate) == 0 {
		// The boolean structure alone is infeasible.
		return &Core{Minimal: true}, nil
	}

	core, minimal, err := in.shrinkCore(ctx, exps, candidate, budget)
	if err != nil {
		return nil, err
	}
	return &Core{Indices: core, Minimal: minimal}, nil
}

// selectorCore runs the SAT-level core extraction over the lemmas the
// failed probe run accumulated. Every lemma clause is asserted as
// (¬sel_src ∨ lits...) and the formula is solved under the assumption
// that every selector holds; the failed assumptions name the
// experiments whose lemmas the conflict needs. Experiments without
// lemmas cannot appear — correctly so, since they did not contribute
// to the conflict. A Sat outcome (possible only if the budget stopped
// the probe run short of its final UNSAT) falls back to the full
// index set.
func (in *Instance) selectorCore(ctx context.Context, probe *Instance, exps []MeasuredExp, budget *sat.Budget) ([]int, error) {
	enc, err := probe.encodeWith()
	if err != nil {
		return nil, err
	}
	selOf := make([]int, len(exps)) // experiment index -> selector var (0 = none yet)
	litToExp := make(map[sat.Lit]int)
	var assumptions []sat.Lit
	selectorFor := func(i int) sat.Lit {
		if selOf[i] == 0 {
			v := enc.s.NewVar()
			selOf[i] = v
			l := sat.NewLit(v, false)
			litToExp[l] = i
			assumptions = append(assumptions, l)
		}
		return sat.NewLit(selOf[i], false)
	}
	for _, lem := range probe.lemmas {
		src := -1
		for i := range exps {
			if sameExp(lem.src, exps[i].Exp) {
				src = i
				break
			}
		}
		if src < 0 {
			// A lemma from an experiment outside the set cannot be
			// attributed; skip it (dropping clauses only weakens the
			// core candidate, never unsoundly shrinks it).
			continue
		}
		clause := make([]sat.Lit, 0, len(lem.lits)+1)
		clause = append(clause, selectorFor(src).Not())
		for _, l := range lem.lits {
			clause = append(clause, sat.NewLit(enc.mvar[l.uop][l.port], l.neg))
		}
		if err := enc.s.AddClause(clause...); err != nil && err != sat.ErrTrivialUnsat {
			return nil, err
		}
	}
	r, err := enc.s.SolveBudget(ctx, budget, assumptions...)
	if err != nil {
		return allIndices(len(exps)), err
	}
	switch r {
	case sat.Unsat:
		failed := enc.s.FailedAssumptions()
		if failed == nil {
			// UNSAT independent of the selectors: structural.
			return nil, nil
		}
		var out []int
		for _, l := range failed {
			if i, ok := litToExp[l]; ok {
				out = append(out, i)
			}
		}
		sort.Ints(out)
		return out, nil
	default:
		// Lemmas alone do not capture the conflict at the SAT level;
		// start minimization from the full set.
		return allIndices(len(exps)), nil
	}
}

// shrinkCore minimizes a conflicting index set by deletion with
// halving chunk sizes: drop a whole chunk whenever the remainder is
// still infeasible, ending with an element-wise pass that establishes
// 1-minimality. Probes run the complete refinement loop, so
// minimality holds with respect to the full theory.
func (in *Instance) shrinkCore(ctx context.Context, exps []MeasuredExp, work []int, budget *sat.Budget) ([]int, bool, error) {
	infeasible := func(idxs []int) (bool, error) {
		sub := make([]MeasuredExp, len(idxs))
		for i, idx := range idxs {
			sub[i] = exps[idx]
		}
		_, err := in.Clone().FindMappingBudget(ctx, sub, budget)
		switch {
		case err == nil:
			return false, nil
		case errors.Is(err, ErrNoMapping):
			return true, nil
		default:
			return false, err
		}
	}
	for chunk := (len(work) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i < len(work); {
			end := i + chunk
			if end > len(work) {
				end = len(work)
			}
			if end-i == len(work) {
				// Never probe the empty remainder.
				i = end
				continue
			}
			trial := make([]int, 0, len(work)-(end-i))
			trial = append(trial, work[:i]...)
			trial = append(trial, work[end:]...)
			bad, err := infeasible(trial)
			if err != nil {
				if errors.Is(err, sat.ErrBudgetExhausted) {
					return work, false, nil
				}
				return nil, false, err
			}
			if bad {
				work = trial
			} else {
				i = end
			}
		}
	}
	return work, true, nil
}

// allIndices returns [0, 1, ..., n-1].
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// CoreKeys renders a core's members as canonical experiment keys for
// reporting.
func CoreKeys(exps []MeasuredExp, c *Core) []string {
	if c == nil {
		return nil
	}
	out := make([]string, 0, len(c.Indices))
	for _, i := range c.Indices {
		out = append(out, engine.CanonicalKey(exps[i].Exp))
	}
	return out
}
