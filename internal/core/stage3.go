package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"zenport/internal/persist"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
	"zenport/internal/smt"
)

// stage3 runs the counter-example-guided inference (Algorithm 2,
// §3.3) over the blocking instructions, plus the manually added
// improper store blockers (§4.3). Blocking instructions whose
// measurements make the model unsatisfiable (imul, vpmuldq, vmovd on
// Zen+) are isolated and excluded, together with all schemes sharing
// their mnemonic.
func (p *Pipeline) stage3(ctx context.Context, rep *Report) error {
	inst := p.buildSMTInstance(rep)
	if rep.Supervision == nil {
		rep.Supervision = &SupervisionSummary{}
	}
	// Every solve of the stage — including clones, sub-instances, and
	// core-extraction probes — accumulates straight into the report's
	// telemetry.
	inst.Telemetry = &rep.Supervision.Solver

	// Seed experiments: every blocker executed alone, as one batch.
	seedKeys := inst.SortedKeys()
	seedExps := make([]portmodel.Experiment, len(seedKeys))
	for i, key := range seedKeys {
		seedExps[i] = portmodel.Exp(key)
	}
	seedT, err := p.H.InvThroughputs(ctx, seedExps)
	if err != nil {
		return err
	}
	var exps []smt.MeasuredExp
	for i, e := range seedExps {
		exps = append(exps, smt.MeasuredExp{Exp: e, TInv: seedT[i]})
		rep.CEGARWitnesses = append(rep.CEGARWitnesses, Witness{
			Exp: e, TInv: seedT[i], Claim: "seed: single-instruction throughput",
		})
	}

	// lastGood tracks the most recent consistent mapping, the
	// degradation target if the solver budget later runs out.
	var lastGood *portmodel.Mapping
	for round := 0; round < maxCEGARRounds; round++ {
		m1, relaxed, srep, err := inst.FindMappingSupervised(ctx, exps, p.superviseOpts(ctx))
		exps = relaxed
		p.foldSupervision(rep, srep)
		if errors.Is(err, sat.ErrBudgetExhausted) {
			return p.degradeStage3(rep, inst, lastGood, round)
		}
		if errors.Is(err, smt.ErrNoMapping) {
			// Recovery is disabled or ran out of slack: fall back to
			// the §4.3 anomaly-isolation path unchanged.
			culprit, cerr := p.isolateCulprit(ctx, inst, exps)
			if cerr != nil {
				return cerr
			}
			if culprit == "" {
				return fmt.Errorf("model UNSAT but no single culprit identifiable")
			}
			p.logf("stage 3: excluding anomalous blocker %s (model UNSAT, §4.3)", culprit)
			rep.AnomalousBlockers = append(rep.AnomalousBlockers, culprit)
			p.excludeMnemonicFamily(rep, culprit)
			inst = inst.Without(map[string]bool{culprit: true})
			exps = smt.FilterExps(exps, map[string]bool{culprit: true})
			continue
		}
		if err != nil {
			return err
		}
		lastGood = m1
		other, err := inst.FindOtherMappingBudget(ctx, exps, m1, maxExpDistinct, maxExpTotal, maxCandidates, p.queryBudget())
		if errors.Is(err, sat.ErrBudgetExhausted) {
			// The current mapping is consistent, just not proven
			// unique within bounds; accept it and say so.
			rep.Supervision.BudgetStops++
			p.logf("stage 3: solver budget exhausted during uniqueness search after %d rounds; accepting current mapping", round)
			p.finishStage3(rep, m1)
			rep.CEGARRounds = round
			return nil
		}
		if err != nil {
			return err
		}
		if other == nil {
			p.finishStage3(rep, m1)
			rep.CEGARRounds = round
			return nil
		}
		// CEGAR is inherently sequential — each round's experiment
		// depends on the previous counter-example — so this is a
		// single ctx-aware measurement, not a batch.
		r, err := p.H.Measure(ctx, other.Exp)
		if err != nil {
			return err
		}
		t := r.InvThroughput
		exps = append(exps, smt.MeasuredExp{Exp: other.Exp, TInv: t})
		rep.CEGARWitnesses = append(rep.CEGARWitnesses, Witness{
			Exp:    other.Exp,
			TInv:   t,
			TOther: other.T2,
			Claim: fmt.Sprintf("distinguishes candidate mappings (model values %0.3f vs %0.3f)",
				other.T1, other.T2),
		})
	}
	// Round budget exhausted: accept the last consistent mapping.
	m1, _, srep, err := inst.FindMappingSupervised(ctx, exps, p.superviseOpts(ctx))
	p.foldSupervision(rep, srep)
	if errors.Is(err, sat.ErrBudgetExhausted) {
		return p.degradeStage3(rep, inst, lastGood, maxCEGARRounds)
	}
	if err != nil {
		return err
	}
	p.finishStage3(rep, m1)
	rep.CEGARRounds = maxCEGARRounds
	return nil
}

// queryBudget returns a fresh copy of the configured per-query solver
// budget, or nil when the options leave it unlimited.
func (p *Pipeline) queryBudget() *sat.Budget {
	b := p.Opts.SolverBudget
	if b.MaxConflicts == 0 && b.MaxPropagations == 0 && b.MaxDecisions == 0 && b.Deadline.IsZero() {
		return nil
	}
	return &sat.Budget{
		MaxConflicts:    b.MaxConflicts,
		MaxPropagations: b.MaxPropagations,
		MaxDecisions:    b.MaxDecisions,
		Deadline:        b.Deadline,
	}
}

// superviseOpts assembles the supervision configuration of one solver
// query: the per-query budget, the recovery bounds, measurement
// quality from the engine's cached quality records, and — when
// recovery is enabled — re-measurement through the engine.
func (p *Pipeline) superviseOpts(ctx context.Context) smt.SuperviseOptions {
	opts := smt.SuperviseOptions{
		Budget:   p.queryBudget(),
		MaxSlack: p.Opts.MaxSlack,
		Log:      p.Opts.Log,
		QualityOf: func(e portmodel.Experiment) float64 {
			// Cache hit for anything stage 3 measured; the robust
			// spread ranks trustworthiness.
			r, err := p.H.Measure(ctx, e)
			if err != nil {
				return 0
			}
			return r.Quality.Spread
		},
	}
	if p.Opts.MaxSlack > 0 {
		opts.Remeasure = func(ctx context.Context, e portmodel.Experiment) (float64, error) {
			r, err := p.H.Remeasure(ctx, e)
			if err != nil {
				return 0, err
			}
			return r.InvThroughput, nil
		}
	}
	return opts
}

// foldSupervision merges one supervised query's report into the
// run-level summary, deriving the Relaxed scheme list from the
// relaxations' canonical experiment keys.
func (p *Pipeline) foldSupervision(rep *Report, srep *smt.SupervisionReport) {
	if srep == nil {
		return
	}
	sup := rep.Supervision
	sup.Cores = append(sup.Cores, srep.Cores...)
	sup.Relaxations = append(sup.Relaxations, srep.Relaxations...)
	if srep.BudgetExhausted {
		sup.BudgetStops++
	}
	for _, rx := range srep.Relaxations {
		exp, err := persist.ParseCanonicalKey(rx.Key)
		if err != nil {
			continue
		}
		for k := range exp {
			rep.Relaxed = appendUnique(rep.Relaxed, k)
		}
	}
	sort.Strings(rep.Relaxed)
}

// degradeStage3 accepts the best partial result when the solver budget
// runs out mid-CEGAR: the last consistent mapping when one exists,
// otherwise an empty blocker mapping with every blocker flagged
// Unresolved — stage 4 then degrades in turn instead of the run dying.
func (p *Pipeline) degradeStage3(rep *Report, inst *smt.Instance, lastGood *portmodel.Mapping, round int) error {
	rep.CEGARRounds = round
	if lastGood != nil {
		p.logf("stage 3: solver budget exhausted after %d rounds; degrading to last consistent mapping", round)
		p.finishStage3(rep, lastGood)
		return nil
	}
	p.logf("stage 3: solver budget exhausted before any consistent mapping; all %d blockers unresolved", len(inst.SortedKeys()))
	for _, k := range inst.SortedKeys() {
		rep.Unresolved = appendUnique(rep.Unresolved, k)
	}
	sort.Strings(rep.Unresolved)
	p.finishStage3(rep, portmodel.NewMapping(p.H.P.NumPorts()))
	return nil
}

// buildSMTInstance assembles the CEGAR solver instance over the
// blocking classes plus the manually added improper blockers (§4.3,
// "We augment the SMT formulas such that..."). An improper blocker
// that stage 1 did not measure (a scheme list cut short by
// -max-schemes) is left out of the instance, and stage 4 goes on
// without it.
func (p *Pipeline) buildSMTInstance(rep *Report) *smt.Instance {
	inst := &smt.Instance{
		NumPorts: p.H.P.NumPorts(),
		Rmax:     p.H.P.Rmax(),
		Epsilon:  p.Opts.Epsilon,
	}
	for i := range rep.Classes {
		cls := &rep.Classes[i]
		inst.Uops = append(inst.Uops, smt.UopSpec{Key: cls.Rep, NumPorts: cls.PortCount})
	}
	// Improper blockers: two µops, one tied to a proper blocker's
	// port set.
	for _, key := range improperBlockers {
		if _, ok := rep.Info[key]; !ok {
			p.logf("stage 3: improper blocker %q was not measured in stage 1; leaving it out", key)
			continue
		}
		inst.Uops = append(inst.Uops,
			smt.UopSpec{Key: key, NumPorts: 0},
			smt.UopSpec{Key: key, TiedToBlocker: true},
		)
	}
	return inst
}

// finishStage3 stores the blocker mapping and back-fills the inferred
// port sets into the blocking classes.
func (p *Pipeline) finishStage3(rep *Report, m *portmodel.Mapping) {
	rep.BlockerMapping = m
	for i := range rep.Classes {
		cls := &rep.Classes[i]
		if u, ok := m.Get(cls.Rep); ok && len(u) > 0 {
			cls.Ports = u[0].Ports
		}
	}
}

// excludeMnemonicFamily marks every scheme sharing the culprit's
// mnemonic as excluded (§4.3: "...and instructions with the same
// mnemonics, as we expect them to share aspects of the problematic
// instructions").
func (p *Pipeline) excludeMnemonicFamily(rep *Report, culprit string) {
	mn := strings.SplitN(culprit, " ", 2)[0]
	for key := range rep.Info {
		if strings.SplitN(key, " ", 2)[0] == mn && rep.Excluded[key] == "" {
			rep.Excluded[key] = ExclCEGARAnomaly
		}
	}
	// Drop the class whose representative is the culprit from the
	// CEGAR result (it stays in Table 1's class list).
}

// isolateCulprit identifies the blocking instruction responsible for
// an UNSAT model, mirroring the diagnosis the paper performs by hand
// in §4.3. It first asks, for every blocker key k, whether removing k
// (and the experiments mentioning it) makes the model satisfiable —
// the direct formalization of "these instructions cause UNSAT results
// in the findMapping method". If several single removals work, probe
// benchmarks decide; if none does (several anomalies poison disjoint
// experiments), suspicion falls back to per-experiment sub-problems.
func (p *Pipeline) isolateCulprit(ctx context.Context, inst *smt.Instance, exps []smt.MeasuredExp) (string, error) {
	keys := inst.SortedKeys()
	unsat, err := p.unsatQueries(ctx, inst.Telemetry, len(keys), func(i int) (*smt.Instance, []smt.MeasuredExp) {
		excl := map[string]bool{keys[i]: true}
		return inst.Without(excl), smt.FilterExps(exps, excl)
	})
	if err != nil {
		return "", err
	}
	var fixes []string
	for i, k := range keys {
		if !unsat[i] {
			fixes = append(fixes, k)
		}
	}
	if len(fixes) == 1 {
		return fixes[0], nil
	}
	if len(fixes) > 1 {
		return p.probeDiagnose(ctx, inst, exps, fixes)
	}

	// No single removal fixes the model: several instructions are
	// anomalous at once. Score keys by how many measured experiments
	// become satisfiable sub-problems only without them.
	var subs []map[string]bool
	for _, me := range exps {
		if me.Exp.Len() < 2 {
			continue
		}
		sub := map[string]bool{}
		for k := range me.Exp {
			sub[k] = true
		}
		subs = append(subs, sub)
	}
	unsat, err = p.unsatQueries(ctx, inst.Telemetry, len(subs), func(i int) (*smt.Instance, []smt.MeasuredExp) {
		return subInstance(inst, subs[i]), expsOver(exps, subs[i])
	})
	if err != nil {
		return "", err
	}
	suspicion := map[string]int{}
	for i, sub := range subs {
		if unsat[i] {
			for k := range sub {
				suspicion[k]++
			}
		}
	}
	p.logf("stage 3: culprit isolation: suspicion=%v over %d experiments", suspicion, len(exps))
	var suspects []string
	maxS := 0
	for _, s := range suspicion {
		if s > maxS {
			maxS = s
		}
	}
	for k, s := range suspicion {
		if s == maxS && maxS > 0 {
			suspects = append(suspects, k)
		}
	}
	if len(suspects) == 0 {
		// Joint inconsistency with no localized witness: probe all
		// keys pairwise against each other.
		suspects = keys
	}
	sort.Strings(suspects)
	if len(suspects) == 1 {
		return suspects[0], nil
	}
	return p.probeDiagnose(ctx, inst, exps, suspects)
}

// probeDiagnose separates tied suspects with fresh benchmarks: each
// suspect is flooded with four copies of every non-suspect blocker
// and charged for every two-instruction model the measurement
// contradicts.
func (p *Pipeline) probeDiagnose(ctx context.Context, inst *smt.Instance, exps []smt.MeasuredExp, suspects []string) (string, error) {
	sort.Strings(suspects)
	suspectSet := map[string]bool{}
	for _, s := range suspects {
		suspectSet[s] = true
	}
	singleton := map[string]float64{}
	for _, me := range exps {
		if me.Exp.Len() == 1 {
			for k := range me.Exp {
				singleton[k] = me.TInv
			}
		}
	}
	// The whole suspect×partner probe grid is known up front (the
	// sequential code had no early exit either), so it measures as one
	// batch.
	type probePair struct{ s, partner string }
	var grid []probePair
	var probes []portmodel.Experiment
	for _, s := range suspects {
		for _, partner := range inst.SortedKeys() {
			if suspectSet[partner] || partner == s {
				continue
			}
			grid = append(grid, probePair{s, partner})
			probes = append(probes, portmodel.Experiment{partner: 4, s: 1})
		}
	}
	probeT, err := p.H.InvThroughputs(ctx, probes)
	if err != nil {
		return "", err
	}
	unsat, err := p.unsatQueries(ctx, inst.Telemetry, len(grid), func(i int) (*smt.Instance, []smt.MeasuredExp) {
		s, partner := grid[i].s, grid[i].partner
		sub := subInstance(inst, map[string]bool{partner: true, s: true})
		var subExps []smt.MeasuredExp
		for _, k := range []string{partner, s} {
			if ts, ok := singleton[k]; ok {
				subExps = append(subExps, smt.MeasuredExp{Exp: portmodel.Exp(k), TInv: ts})
			}
		}
		return sub, append(subExps, smt.MeasuredExp{Exp: probes[i], TInv: probeT[i]})
	})
	if err != nil {
		return "", err
	}
	scores := map[string]int{}
	for i, pp := range grid {
		if unsat[i] {
			scores[pp.s]++
		}
	}
	p.logf("stage 3: probe diagnosis: scores=%v", scores)
	best := suspects[0]
	for _, s := range suspects[1:] {
		if scores[s] > scores[best] {
			best = s
		}
	}
	if scores[best] == 0 {
		// No probe incriminates anyone individually; fall back to
		// the suspect with the smallest port count (the paper's
		// anomalies were all narrow-port instructions), then
		// lexicographic.
		sort.Slice(suspects, func(a, b int) bool {
			pa, pb := instPortCount(inst, suspects[a]), instPortCount(inst, suspects[b])
			if pa != pb {
				return pa < pb
			}
			return suspects[a] < suspects[b]
		})
		best = suspects[0]
	}
	return best, nil
}

// unsatQueries answers n independent feasibility queries of the §4.3
// diagnosis on the engine's workers: query(i) builds the i-th
// sub-instance and its experiments, and unsat[i] reports whether
// FindMappingBudget found no mapping for them. query runs on a worker
// and may only read shared state. Each query records its own
// telemetry; the records are summed into tel in index order once every
// query has returned.
//
// Queries start in index order. A query that fails with an error
// other than smt.ErrNoMapping cancels every query of a higher index,
// and the error of the lowest failing index is returned, so the
// outcome never depends on completion order. No goroutine outlives
// the call.
func (p *Pipeline) unsatQueries(ctx context.Context, tel *smt.QueryStats, n int, query func(i int) (*smt.Instance, []smt.MeasuredExp)) ([]bool, error) {
	unsat := make([]bool, n)
	errs := make([]error, n)
	stats := make([]smt.QueryStats, n)
	cancels := make([]context.CancelFunc, n)
	var (
		mu     sync.Mutex
		next   int
		failed = n // lowest failing index so far
		wg     sync.WaitGroup
	)
	// claim hands out the next index with its own context, or -1 when
	// every index has started or the rest lie above a failure.
	claim := func() (int, context.Context) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || next > failed {
			return -1, nil
		}
		i := next
		next++
		qctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		return i, qctx
	}
	fail := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if i < failed {
			failed = i
			for j := i + 1; j < next; j++ {
				cancels[j]()
			}
		}
	}
	for w := min(p.H.WorkerCount(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, qctx := claim()
				if i < 0 {
					return
				}
				sub, exps := query(i)
				sub.Telemetry = &stats[i]
				_, err := sub.FindMappingBudget(qctx, exps, nil)
				if errors.Is(err, smt.ErrNoMapping) {
					unsat[i] = true
				} else if err != nil {
					errs[i] = err
					fail(i)
				}
			}
		}()
	}
	wg.Wait()
	for i := range n {
		if cancels[i] != nil {
			cancels[i]()
		}
		if tel != nil {
			tel.Add(stats[i])
		}
	}
	if failed < n {
		return nil, errs[failed]
	}
	return unsat, nil
}

// instPortCount returns the declared port count of a key's first µop.
func instPortCount(inst *smt.Instance, key string) int {
	for _, u := range inst.Uops {
		if u.Key == key {
			if u.NumPorts == 0 {
				return 99
			}
			return u.NumPorts
		}
	}
	return 99
}

// subInstance restricts an instance to the given keys, dropping tie
// constraints (a relaxation, so UNSAT sub-problems are genuine).
func subInstance(inst *smt.Instance, keys map[string]bool) *smt.Instance {
	out := &smt.Instance{NumPorts: inst.NumPorts, Rmax: inst.Rmax, Epsilon: inst.Epsilon, Telemetry: inst.Telemetry}
	for _, u := range inst.Uops {
		if keys[u.Key] {
			u.TiedToBlocker = false
			out.Uops = append(out.Uops, u)
		}
	}
	return out
}

// expsOver selects the experiments mentioning only the given keys.
func expsOver(exps []smt.MeasuredExp, keys map[string]bool) []smt.MeasuredExp {
	var out []smt.MeasuredExp
	for _, me := range exps {
		ok := true
		for k := range me.Exp {
			if !keys[k] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, me)
		}
	}
	return out
}
