package smt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"zenport/internal/portmodel"
	"zenport/internal/sat"
)

// ErrNoMapping is returned by FindMapping when no port mapping is
// consistent with the measured experiments: the processor does not
// follow the port mapping model on these instructions (§3.3, l. 2 of
// Algorithm 2 returning None).
var ErrNoMapping = errors.New("smt: no port mapping is consistent with the experiments")

// maxTheoryIterations bounds the DPLL(T) refinement loop per query.
const maxTheoryIterations = 200000

// QueryStats accumulates solver telemetry across SMT queries. Attach
// one to Instance.Telemetry to have every FindMapping/FindOtherMapping
// call (including sub-instance solves sharing the pointer) fold its
// CDCL counters, theory iterations, and lemma counts into it.
type QueryStats struct {
	// Queries counts FindMapping/FindOtherMapping executions.
	Queries uint64 `json:"queries"`
	// TheoryIterations counts DPLL(T) refinement iterations.
	TheoryIterations uint64 `json:"theory_iterations"`
	// LemmasLearned counts generalized theory lemmas learned.
	LemmasLearned uint64 `json:"lemmas_learned"`
	// BudgetExhausted counts queries stopped by the solver budget.
	BudgetExhausted uint64 `json:"budget_exhausted,omitempty"`
	// Solver totals the CDCL counters of every query's SAT solver.
	Solver sat.Stats `json:"solver"`
}

// Add sums another query record into q. It is the one place that
// sums QueryStats, for a query's own record and for the records of
// concurrent queries alike.
func (q *QueryStats) Add(o QueryStats) {
	q.Queries += o.Queries
	q.TheoryIterations += o.TheoryIterations
	q.LemmasLearned += o.LemmasLearned
	q.BudgetExhausted += o.BudgetExhausted
	q.Solver.Propagations += o.Solver.Propagations
	q.Solver.Conflicts += o.Solver.Conflicts
	q.Solver.Decisions += o.Solver.Decisions
	q.Solver.Restarts += o.Solver.Restarts
	q.Solver.Learned += o.Solver.Learned
}

// noteQuery folds one finished query's solver counters into the
// instance telemetry.
func (in *Instance) noteQuery(enc *encoding, iters, lemmas0 int, budgetStopped bool) {
	if in.Telemetry == nil {
		return
	}
	one := QueryStats{Queries: 1, TheoryIterations: uint64(iters), Solver: enc.s.StatsSnapshot()}
	if n := len(in.lemmas) - lemmas0; n > 0 {
		one.LemmasLearned = uint64(n)
	}
	if budgetStopped {
		one.BudgetExhausted = 1
	}
	in.Telemetry.Add(one)
}

// FindMapping searches a port mapping consistent with all measured
// experiments (the paper's findMapping, §3.3.3). It returns
// ErrNoMapping if the observations contradict the model.
func (in *Instance) FindMapping(exps []MeasuredExp) (*portmodel.Mapping, error) {
	return in.FindMappingBudget(context.Background(), exps, nil)
}

// FindMappingBudget is FindMapping with cancellation, under a solver
// budget shared by every SAT search of the query's refinement loop.
// ctx is checked between DPLL(T) iterations and — through the CDCL
// loop's restart boundaries — inside each SAT search, so a hung query
// honors its deadline. When the budget runs out the query stops with
// an error matching sat.ErrBudgetExhausted instead of spinning; nil
// budget means unlimited.
//
// It leaves every learned lemma in the store regardless of outcome:
// anomaly isolation warm-starts the post-exclusion queries from the
// failed query's lemmas (via Without), so keeping the trail on
// ErrNoMapping is part of the contract, not an accident.
func (in *Instance) FindMappingBudget(ctx context.Context, exps []MeasuredExp, budget *sat.Budget) (*portmodel.Mapping, error) {
	enc, err := in.encode()
	if err != nil {
		return nil, err
	}
	// Compiled propagation state: dense weight vectors, packed µops,
	// zero allocations per candidate check. An experiment that cannot
	// be interned (a key outside the instance, a negative count) fails
	// the query before any search.
	prop, err := in.NewPropagator(exps)
	if err != nil {
		return nil, err
	}
	var byUop []portmodel.PortSet
	iters, lemmas0, budgetStopped := 0, len(in.lemmas), false
	defer func() { in.noteQuery(enc, iters, lemmas0, budgetStopped) }()
	for iters < maxTheoryIterations {
		iters++
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := enc.s.SolveBudget(ctx, budget)
		if err != nil {
			budgetStopped = errors.Is(err, sat.ErrBudgetExhausted)
			return nil, err
		}
		if r != sat.Sat {
			return nil, ErrNoMapping
		}
		byUop = in.decodePorts(enc, byUop)
		prop.load(byUop)
		vs := prop.check()
		if len(vs) == 0 {
			return in.mappingFromPorts(byUop), nil
		}
		// Theory conflict: learn generalized lemmas and re-solve.
		if err := in.learnViolations(enc, prop, byUop, exps, vs); err != nil {
			if errors.Is(err, errUnsatLemma) {
				return nil, ErrNoMapping
			}
			return nil, err
		}
	}
	return nil, fmt.Errorf("smt: theory refinement did not converge")
}

// assertLastLemma adds the most recently learned lemma to a live
// solver, so the refinement loop does not rebuild the encoding.
func (in *Instance) assertLastLemma(enc *encoding) error {
	return enc.s.AddClause(in.lemmas[len(in.lemmas)-1].clause(enc)...)
}

// blockModel adds a clause excluding the exact current assignment of
// the m-variables (used to enumerate distinct mappings). For µops
// with an exact cardinality constraint, negating just the true
// literals suffices: any other admissible assignment must drop one of
// the current ports. Free-cardinality µops additionally contribute
// their false literals.
func (in *Instance) blockModel(enc *encoding, byUop []portmodel.PortSet) error {
	var clause []sat.Lit
	for u, spec := range in.Uops {
		for k := 0; k < in.NumPorts; k++ {
			has := byUop[u].Has(k)
			if has {
				clause = append(clause, sat.NewLit(enc.mvar[u][k], true))
			} else if spec.NumPorts == 0 {
				clause = append(clause, sat.NewLit(enc.mvar[u][k], false))
			}
		}
	}
	return enc.s.AddClause(clause...)
}

// OtherMapping is the result of FindOtherMapping: a second consistent
// mapping and an experiment whose modeled throughputs differ by more
// than 2ε·|e| between the two mappings (§3.3.4).
type OtherMapping struct {
	Mapping *portmodel.Mapping
	Exp     portmodel.Experiment
	T1, T2  float64
}

// FindOtherMapping searches a mapping m2 that is also consistent with
// the experiments but distinguishable from m1 by a new experiment
// (the paper's findOtherMapping). Experiments are searched in
// stratified order: first over at most maxDistinct distinct
// instructions with total size growing up to maxTotal (§3.3.4,
// "stratified approach"). It returns nil if every consistent mapping
// is indistinguishable from m1 within those bounds.
func (in *Instance) FindOtherMapping(exps []MeasuredExp, m1 *portmodel.Mapping, maxDistinct, maxTotal, maxCandidates int) (*OtherMapping, error) {
	return in.FindOtherMappingBudget(context.Background(), exps, m1, maxDistinct, maxTotal, maxCandidates, nil)
}

// FindOtherMappingBudget is FindOtherMapping with cancellation and a
// solver budget shared by every SAT search of the enumeration (nil =
// unlimited). ctx is checked between candidate-enumeration iterations
// and at the CDCL loop's restart boundaries; budget exhaustion
// surfaces as an error matching sat.ErrBudgetExhausted.
//
// Unlike FindMappingBudget it is transactional over the lemma store:
// any outcome without a found OtherMapping rolls the store back to
// its pre-query state. A nil result ends its CEGAR loop (the mapping
// is unique within bounds), so nothing downstream warm-starts from
// its trail.
func (in *Instance) FindOtherMappingBudget(ctx context.Context, exps []MeasuredExp, m1 *portmodel.Mapping, maxDistinct, maxTotal, maxCandidates int, budget *sat.Budget) (*OtherMapping, error) {
	mark := len(in.lemmas)
	om, err := in.findOtherMapping(ctx, exps, m1, maxDistinct, maxTotal, maxCandidates, budget)
	if om == nil {
		in.invalidateFrom(mark)
		in.lemmas = in.lemmas[:mark]
	}
	return om, err
}

// findOtherMapping is the enumeration loop behind
// FindOtherMappingBudget, which owns the lemma-store rollback.
func (in *Instance) findOtherMapping(ctx context.Context, exps []MeasuredExp, m1 *portmodel.Mapping, maxDistinct, maxTotal, maxCandidates int, budget *sat.Budget) (*OtherMapping, error) {
	enc, err := in.encode()
	if err != nil {
		return nil, err
	}
	prop, err := in.NewPropagator(exps)
	if err != nil {
		return nil, err
	}
	var byUop []portmodel.PortSet
	iters, lemmas0, budgetStopped := 0, len(in.lemmas), false
	defer func() { in.noteQuery(enc, iters, lemmas0, budgetStopped) }()
	// The candidate experiments, in stratified order, are the
	// instance's; m1's values on them are computed as the scans of the
	// examined m2 first need them.
	search, err := in.newCandSearch(m1, maxDistinct, maxTotal)
	if err != nil {
		return nil, err
	}
	candidates := 0
	for iters < maxTheoryIterations && candidates < maxCandidates {
		iters++
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := enc.s.SolveBudget(ctx, budget)
		if err != nil {
			budgetStopped = errors.Is(err, sat.ErrBudgetExhausted)
			return nil, err
		}
		if r != sat.Sat {
			return nil, nil
		}
		byUop = in.decodePorts(enc, byUop)
		prop.load(byUop)
		if vs := prop.check(); len(vs) > 0 {
			if err := in.learnViolations(enc, prop, byUop, exps, vs); err != nil {
				if errors.Is(err, errUnsatLemma) {
					return nil, nil
				}
				return nil, err
			}
			continue
		}
		m2 := in.mappingFromPorts(byUop)
		candidates++
		// m2 is consistent. Indistinguishable permutations of m1 are
		// skipped outright; the rest are evaluated on prop.comp, which
		// holds m2's port sets since prop.load.
		if !sameUsage(m1, m2) && !m1.Isomorphic(m2) {
			if exp, t1, t2 := search.distinguish(m2, prop.comp); exp != nil {
				return &OtherMapping{Mapping: m2, Exp: exp, T1: t1, T2: t2}, nil
			}
		}
		// Indistinguishable within bounds: enumerate the next one.
		if err := in.blockModel(enc, byUop); err != nil {
			return nil, nil
		}
	}
	return nil, nil
}

// sameUsage reports whether two mappings assign identical usages.
func sameUsage(a, b *portmodel.Mapping) bool {
	if len(a.Usage) != len(b.Usage) {
		return false
	}
	for k, u := range a.Usage {
		v, ok := b.Usage[k]
		if !ok || !u.Equal(v) {
			return false
		}
	}
	return true
}

// candidates is the stratified experiment enumeration of one key set
// (§3.3.4): every experiment over at most maxDistinct distinct keys,
// in order of total size up to maxTotal, stored flat with no map.
// Candidate i has the dense weight vector w[i*n:(i+1)*n] over keys —
// the layout of every evaluator compiled over the instance keys, the
// propagator's included — and the instruction count total[i]. It
// depends on nothing but the keys and the bounds, so an instance
// enumerates it once and every query over the same key set reuses it.
type candidates struct {
	keys                  []string
	maxDistinct, maxTotal int
	w                     []int32
	total                 []int32
}

// enumerateCandidates lists the experiments within the bounds: by
// total size, then lexicographically by (key index, count) pairs.
func enumerateCandidates(keys []string, maxDistinct, maxTotal int) *candidates {
	n := len(keys)
	c := &candidates{keys: keys, maxDistinct: maxDistinct, maxTotal: maxTotal}
	w := make([]int32, n)
	total := 0
	var rec func(start, remaining, distinct int)
	rec = func(start, remaining, distinct int) {
		if remaining == 0 {
			c.w = append(c.w, w...)
			c.total = append(c.total, int32(total))
			return
		}
		if distinct == 0 {
			return
		}
		for i := start; i < n; i++ {
			for k := 1; k <= remaining; k++ {
				w[i] = int32(k)
				rec(i+1, remaining-k, distinct-1)
			}
			w[i] = 0
		}
	}
	for total = 1; total <= maxTotal; total++ {
		rec(0, total, maxDistinct)
	}
	return c
}

// weights returns candidate i's weight vector, aliasing the slab.
func (c *candidates) weights(i int) []int32 {
	n := len(c.keys)
	return c.w[i*n : (i+1)*n : (i+1)*n]
}

// exp builds candidate i's experiment map.
func (c *candidates) exp(i int) portmodel.Experiment {
	e := make(portmodel.Experiment, c.maxDistinct)
	for k, x := range c.weights(i) {
		if x != 0 {
			e[c.keys[k]] = int(x)
		}
	}
	return e
}

// candidatesFor returns the candidate enumeration of the given keys
// (the instance keys) within the bounds. It enumerates only when the
// key set or the bounds differ from the previous query's.
func (in *Instance) candidatesFor(keys []string, maxDistinct, maxTotal int) *candidates {
	if c := in.cands; c != nil && c.maxDistinct == maxDistinct && c.maxTotal == maxTotal && slices.Equal(c.keys, keys) {
		return c
	}
	in.cands = enumerateCandidates(keys, maxDistinct, maxTotal)
	return in.cands
}

// candSearch is one query's search of the candidates for an
// experiment that distinguishes m1 from another mapping. m1's value
// on a candidate is computed the first time a scan reaches it with a
// key on which the two mappings differ, and kept for the rest of the
// query; t1 holds NaN until then.
type candSearch struct {
	*candidates
	m1         *portmodel.Mapping
	comp1      *portmodel.Compiled
	t1         []float64
	diff       []bool
	rmax, need float64
}

// newCandSearch starts a search against m1. It fails when m1 has no
// usage for some instance key.
func (in *Instance) newCandSearch(m1 *portmodel.Mapping, maxDistinct, maxTotal int) (*candSearch, error) {
	keys := in.keys()
	comp1, err := portmodel.CompileMapping(m1, keys)
	if err != nil {
		return nil, err
	}
	c := in.candidatesFor(keys, maxDistinct, maxTotal)
	t1 := make([]float64, len(c.total))
	for i := range t1 {
		t1[i] = math.NaN()
	}
	return &candSearch{candidates: c, m1: m1, comp1: comp1, t1: t1, diff: make([]bool, len(keys)), rmax: in.Rmax, need: 2 * in.Epsilon}, nil
}

// distinguish returns the first candidate, in order, whose values
// under m1 and m2 differ by more than 2ε·|e|. comp2 evaluates m2
// compiled over the instance keys; it is the propagator's evaluator in
// the CEGAR loop. Candidates that involve no key on which the two
// mappings differ have equal values and are skipped.
func (s *candSearch) distinguish(m2 *portmodel.Mapping, comp2 *portmodel.Compiled) (portmodel.Experiment, float64, float64) {
	for i, k := range s.keys {
		s.diff[i] = !s.m1.Usage[k].Equal(m2.Usage[k])
	}
	for i := range s.total {
		w, total := s.weights(i), int(s.total[i])
		touches := false
		for k, x := range w {
			if x != 0 && s.diff[k] {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		t1 := s.t1[i]
		if math.IsNaN(t1) {
			t1 = s.comp1.InverseThroughputBoundedWeights(w, total, s.rmax)
			s.t1[i] = t1
		}
		t2 := comp2.InverseThroughputBoundedWeights(w, total, s.rmax)
		if abs(t1-t2) > s.need*float64(total) {
			return s.exp(i), t1, t2
		}
	}
	return nil, 0, 0
}

// distinguish searches an experiment whose modeled inverse
// throughputs under m1 and m2 differ by more than 2ε·|e|, in
// stratified order of experiment size. It is the single-shot form of
// the search findOtherMapping runs, over the same enumeration and
// evaluator.
func (in *Instance) distinguish(m1, m2 *portmodel.Mapping, maxDistinct, maxTotal int) (portmodel.Experiment, float64, float64, error) {
	s, err := in.newCandSearch(m1, maxDistinct, maxTotal)
	if err != nil {
		return nil, 0, 0, err
	}
	comp2, err := portmodel.CompileMapping(m2, s.keys)
	if err != nil {
		return nil, 0, 0, err
	}
	e, t1, t2 := s.distinguish(m2, comp2)
	return e, t1, t2, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// SortedKeys exposes the instance's instruction keys (sorted), mainly
// for reporting.
func (in *Instance) SortedKeys() []string { return in.keys() }

// Reset drops all learned lemmas (used between independent runs on
// the same instance shape).
func (in *Instance) Reset() {
	in.invalidateFrom(0)
	in.lemmas = nil
}

// Clone returns a copy of the instance without learned lemmas. The
// telemetry accumulator is shared, so sub-solves on the clone count
// toward the same query statistics.
func (in *Instance) Clone() *Instance {
	out := &Instance{NumPorts: in.NumPorts, Rmax: in.Rmax, Epsilon: in.Epsilon, Telemetry: in.Telemetry}
	out.Uops = append([]UopSpec(nil), in.Uops...)
	return out
}

// Without returns a copy of the instance with all µops of the given
// keys removed (used for §4.3 culprit isolation after UNSAT). Learned
// lemmas survive when their source experiment avoids the removed keys
// (their µop indices are remapped), so repeated sub-problem solves
// stay cheap. The kept lemmas' literals share one slab.
func (in *Instance) Without(keys map[string]bool) *Instance {
	out := &Instance{NumPorts: in.NumPorts, Rmax: in.Rmax, Epsilon: in.Epsilon, Telemetry: in.Telemetry}
	remap := make([]int32, len(in.Uops))
	for i, u := range in.Uops {
		if keys[u.Key] {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(out.Uops))
		out.Uops = append(out.Uops, u)
	}
	n := 0
	for _, lem := range in.lemmas {
		n += len(lem.lits)
	}
	slab := make([]lemmaLit, 0, n)
	out.lemmas = make([]lemma, 0, len(in.lemmas))
	for _, lem := range in.lemmas {
		keep := true
		for k := range lem.src {
			if keys[k] {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		start := len(slab)
		for _, l := range lem.lits {
			if remap[l.uop] < 0 {
				keep = false
				break
			}
			slab = append(slab, lemmaLit{uop: remap[l.uop], port: l.port, neg: l.neg})
		}
		if !keep {
			slab = slab[:start]
			continue
		}
		out.lemmas = append(out.lemmas, lemma{lits: slab[start:len(slab):len(slab)], src: lem.src})
	}
	return out
}

// FilterExps drops experiments that mention any of the given keys.
func FilterExps(exps []MeasuredExp, exclude map[string]bool) []MeasuredExp {
	var out []MeasuredExp
	for _, me := range exps {
		keep := true
		for k := range me.Exp {
			if exclude[k] {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, me)
		}
	}
	return out
}
