// Package smt implements the solver layer of the counter-example-
// guided port mapping inference algorithm (Section 3.3 of Ritter &
// Hack, ASPLOS 2024): findMapping and findOtherMapping.
//
// The paper encodes both queries as SMT(LIRA) formulas for z3. This
// reproduction cannot ship z3 (closed toolchain, offline module), so
// the same queries are decided by a DPLL(T)-style loop over the CDCL
// SAT solver of package sat:
//
//   - boolean structure — the m[u,k] port-membership variables,
//     exact-cardinality constraints from measured single-instruction
//     throughputs, µop-tying constraints for the improper store
//     blockers (§4.3), and lex symmetry breaking over port columns —
//     lives in SAT clauses;
//   - the arithmetic part — the throughput LP with its optimality
//     conditions (constraints F–I) — is decided exactly by the
//     combinatorial evaluator of package portmodel, and every theory
//     conflict is fed back as a *generalized monotone lemma* (see
//     DESIGN.md §3) that excludes a whole up- or down-set of
//     mappings, not just the failing model.
//
// The acceptance predicate is identical to the paper's: a mapping M
// satisfies experiment (e, t) iff |max(tp_M(e), |e|/Rmax) − t| ≤ ε·|e|
// (§3.3.4, §3.4).
package smt

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"zenport/internal/portmodel"
	"zenport/internal/sat"
)

// UopSpec describes one µop whose port set is to be inferred.
type UopSpec struct {
	// Key is the instruction scheme owning the µop.
	Key string
	// NumPorts is the known cardinality of the port set, derived
	// from the measured single-instruction throughput (§3.2 step 2).
	// Zero means unknown (used for the improper blockers' µops).
	NumPorts int
	// TiedToBlocker, if true, constrains this µop's port set to be
	// equal to the port set of some proper single-µop instruction of
	// the instance (§4.3: "one of their µops is equal to one with a
	// proper blocking instruction").
	TiedToBlocker bool
}

// Instance is a findMapping/findOtherMapping problem: a set of
// instructions, each decomposed into one or more µops with unknown
// port sets.
type Instance struct {
	// NumPorts is the number of execution ports.
	NumPorts int
	// Rmax is the frontend bottleneck in instructions/cycle (§3.4);
	// 0 disables it.
	Rmax float64
	// Epsilon is the CPI tolerance (§3.3.4).
	Epsilon float64
	// Uops lists all µops. Instructions with several µops list
	// several entries with the same Key.
	Uops []UopSpec

	// lemmas accumulates theory lemmas across solver runs of one
	// CEGAR execution; each is sound as long as its source experiment
	// remains in the measured set, and is re-asserted into every
	// fresh SAT solver.
	lemmas []lemma

	// Telemetry, if non-nil, accumulates per-query solver statistics
	// across FindMapping/FindOtherMapping calls (and the sub-instance
	// solves derived via Clone/Without, which share the pointer). A
	// query writes it unsynchronized: queries that run concurrently
	// each get their own QueryStats, and the owner sums them into its
	// own with Add, in query index order.
	Telemetry *QueryStats

	// pristine caches the symmetry-broken encoding of the instance
	// plus lemmas[:pristineLemmas]. It is never solved: encode extends
	// it with the lemmas learned since and hands each query a clone,
	// the same clauses in the same order as a fresh encoding. It holds
	// only while the lemma prefix it encodes is unchanged, which
	// DropLemmasFrom, Reset and the FindOtherMappingBudget rollback
	// enforce through invalidateFrom, and while Uops and
	// NumPorts equal the shape recorded in pristineUops and
	// pristinePorts, which encode compares.
	pristine       *encoding
	pristineLemmas int
	pristineUops   []UopSpec
	pristinePorts  int

	// cands caches the distinguishing-experiment candidates of the
	// last FindOtherMapping query; the next query reuses them when its
	// key set and bounds are the same.
	cands *candidates
}

// MeasuredExp is an experiment with its measured inverse throughput.
type MeasuredExp struct {
	// Exp must not be mutated once passed to a query: the lemmas
	// learned from it keep a reference to it.
	Exp  portmodel.Experiment
	TInv float64
	// Slack widens this experiment's acceptance tolerance beyond the
	// instance Epsilon: the mapping must satisfy
	// |max(tp_M(e), |e|/Rmax) − t| ≤ (ε + Slack)·|e|. Zero for normal
	// experiments; the supervision layer raises it on the members of a
	// minimal conflicting core to recover from inconsistent
	// measurements (PMEvo and PALMED tolerate noisy observations the
	// same way — as soft constraints rather than hard ones).
	Slack float64
}

// lemmaLit is a solver-independent literal: µop index, port, sign.
type lemmaLit struct {
	uop  int32
	port int32
	neg  bool
}

// lemma is a learned theory clause together with the experiment it
// was derived from (the lemma is sound only while that experiment is
// part of the measured set). src is the MeasuredExp's own map, shared
// by every lemma learned from it. Widening the experiment's tolerance
// afterwards invalidates the lemma (a mapping it excludes may now be
// acceptable), so relaxation must drop the experiment's lemmas via
// DropLemmasFrom.
type lemma struct {
	lits []lemmaLit
	src  portmodel.Experiment
}

// keys returns the distinct instruction keys of the instance.
func (in *Instance) keys() []string {
	seen := map[string]bool{}
	var out []string
	for _, u := range in.Uops {
		if !seen[u.Key] {
			seen[u.Key] = true
			out = append(out, u.Key)
		}
	}
	sort.Strings(out)
	return out
}

// properUops returns indices of single-µop instructions (the proper
// blocking instructions), the tying targets of improper µops.
func (in *Instance) properUops() []int {
	count := map[string]int{}
	for _, u := range in.Uops {
		count[u.Key]++
	}
	var out []int
	for i, u := range in.Uops {
		if count[u.Key] == 1 && !u.TiedToBlocker {
			out = append(out, i)
		}
	}
	return out
}

// encoding holds the SAT variable layout of one solver run.
type encoding struct {
	s *sat.Solver
	// mvar[u][k] is the SAT variable of m[u,k].
	mvar [][]int
}

// encode returns a SAT solver with the symmetry-broken boolean
// structure of the instance — port-membership variables, cardinality,
// ties, symmetry breaking — and all accumulated lemmas. It is a clone
// of the cached pristine encoding, which it first rebuilds when the
// shape changed or the cache was invalidated, and extends with the
// lemmas learned since it was last synced. The clone's arena has room
// to grow by an eighth, which holds what four in five of a campaign's
// queries learn, so their searches do not regrow it.
func (in *Instance) encode() (*encoding, error) {
	if in.pristine == nil || in.pristinePorts != in.NumPorts || !slices.Equal(in.pristineUops, in.Uops) {
		enc, err := in.encodeWith()
		if err != nil {
			in.pristine, in.pristineLemmas = nil, 0
			return nil, err
		}
		in.pristine, in.pristineLemmas = enc, 0
		in.pristineUops, in.pristinePorts = slices.Clone(in.Uops), in.NumPorts
	}
	if err := assertLemmas(in.pristine, in.lemmas[in.pristineLemmas:]); err != nil {
		in.pristine, in.pristineLemmas = nil, 0
		return nil, err
	}
	in.pristineLemmas = len(in.lemmas)
	return &encoding{s: in.pristine.s.Clone(in.pristine.s.ArenaSize() / 8), mvar: in.pristine.mvar}, nil
}

// invalidateFrom drops the pristine encoding when it holds lemma i,
// the first lemma a caller is about to remove or replace.
func (in *Instance) invalidateFrom(i int) {
	if i < in.pristineLemmas {
		in.pristine, in.pristineLemmas = nil, 0
	}
}

// encodeWith builds a fresh SAT solver with the symmetry-broken
// boolean structure of the instance and no lemmas: encode extends it
// with the accumulated lemmas, and the UNSAT-core extractor asserts
// them itself, each guarded by its source experiment's selector
// variable.
func (in *Instance) encodeWith() (*encoding, error) {
	s := sat.NewSolver()
	nu, np := len(in.Uops), in.NumPorts
	enc := &encoding{s: s, mvar: make([][]int, nu)}
	for u := 0; u < nu; u++ {
		enc.mvar[u] = make([]int, np)
		for k := 0; k < np; k++ {
			enc.mvar[u][k] = s.NewVar()
		}
	}
	// Cardinality per µop.
	for u, spec := range in.Uops {
		lits := make([]sat.Lit, np)
		for k := 0; k < np; k++ {
			lits[k] = sat.NewLit(enc.mvar[u][k], false)
		}
		if spec.NumPorts > 0 {
			if err := s.AddExactlyK(lits, spec.NumPorts); err != nil {
				return nil, fmt.Errorf("smt: cardinality of %s: %w", spec.Key, err)
			}
		} else {
			if err := s.AddAtLeastK(lits, 1); err != nil {
				return nil, fmt.Errorf("smt: non-empty port set of %s: %w", spec.Key, err)
			}
		}
	}
	// Tie constraints: a tied µop equals some proper µop's port set.
	proper := in.properUops()
	for u, spec := range in.Uops {
		if !spec.TiedToBlocker {
			continue
		}
		if len(proper) == 0 {
			return nil, fmt.Errorf("smt: %s is tied but no proper blockers exist", spec.Key)
		}
		sel := make([]sat.Lit, len(proper))
		for i, p := range proper {
			v := s.NewVar()
			sel[i] = sat.NewLit(v, false)
			for k := 0; k < np; k++ {
				// sel -> (m[u][k] <-> m[p][k])
				if err := s.AddClause(sat.NewLit(v, true), sat.NewLit(enc.mvar[u][k], true), sat.NewLit(enc.mvar[p][k], false)); err != nil {
					return nil, err
				}
				if err := s.AddClause(sat.NewLit(v, true), sat.NewLit(enc.mvar[u][k], false), sat.NewLit(enc.mvar[p][k], true)); err != nil {
					return nil, err
				}
			}
		}
		if err := s.AddAtLeastK(sel, 1); err != nil {
			return nil, err
		}
	}
	// Lex symmetry breaking over adjacent port columns: ports are
	// interchangeable a priori, so require column k ≥lex column k+1.
	for k := 0; k+1 < np; k++ {
		if err := in.addLexGE(enc, k, k+1); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// clause builds the SAT clause of a lemma over an encoding's variables.
func (lem lemma) clause(enc *encoding) []sat.Lit {
	clause := make([]sat.Lit, len(lem.lits))
	for i, l := range lem.lits {
		clause[i] = sat.NewLit(enc.mvar[l.uop][l.port], l.neg)
	}
	return clause
}

// assertLemmas adds lemma clauses to an encoding in order. A lemma that
// closes the search space is kept: the solver then answers Unsat.
func assertLemmas(enc *encoding, lemmas []lemma) error {
	for _, lem := range lemmas {
		if err := enc.s.AddClause(lem.clause(enc)...); err != nil && err != sat.ErrTrivialUnsat {
			return err
		}
	}
	return nil
}

// addLexGE asserts column a ≥lex column b over the µop rows, with
// chain variables eq_u ("equal so far").
func (in *Instance) addLexGE(enc *encoding, a, b int) error {
	s := enc.s
	nu := len(in.Uops)
	prevEq := 0 // 0 means "true" (no variable yet)
	for u := 0; u < nu; u++ {
		ma := sat.NewLit(enc.mvar[u][a], false)
		mb := sat.NewLit(enc.mvar[u][b], false)
		if prevEq == 0 {
			// eq-so-far is true: require m[u][a] >= m[u][b].
			if err := s.AddClause(ma, mb.Not()); err != nil {
				return err
			}
		} else {
			pe := sat.NewLit(prevEq, false)
			if err := s.AddClause(pe.Not(), ma, mb.Not()); err != nil {
				return err
			}
		}
		if u == nu-1 {
			break
		}
		// eq_u <- prevEq ∧ (ma <-> mb); only the -> direction of the
		// chain is needed for soundness of the ordering constraint,
		// but we assert both directions for stronger propagation.
		eq := s.NewVar()
		el := sat.NewLit(eq, false)
		cl := []sat.Lit{el.Not(), ma.Not(), mb}
		if prevEq != 0 {
			// eq -> prevEq
			if err := s.AddClause(el.Not(), sat.NewLit(prevEq, false)); err != nil {
				return err
			}
		}
		if err := s.AddClause(cl...); err != nil {
			return err
		}
		if err := s.AddClause(el.Not(), ma, mb.Not()); err != nil {
			return err
		}
		// (prevEq ∧ ma<->mb) -> eq
		if prevEq == 0 {
			if err := s.AddClause(el, ma, mb); err != nil {
				return err
			}
			if err := s.AddClause(el, ma.Not(), mb.Not()); err != nil {
				return err
			}
		} else {
			pe := sat.NewLit(prevEq, false)
			if err := s.AddClause(el, pe.Not(), ma, mb); err != nil {
				return err
			}
			if err := s.AddClause(el, pe.Not(), ma.Not(), mb.Not()); err != nil {
				return err
			}
		}
		prevEq = eq
	}
	return nil
}

// decodePorts reads only the per-µop port sets out of a satisfying
// model, reusing buf when it has the right length — the hot loops
// avoid building the string-keyed Mapping for candidates that are
// about to be refuted anyway.
func (in *Instance) decodePorts(enc *encoding, buf []portmodel.PortSet) []portmodel.PortSet {
	if len(buf) != len(in.Uops) {
		buf = make([]portmodel.PortSet, len(in.Uops))
	}
	for u := range in.Uops {
		var ps portmodel.PortSet
		for k := 0; k < in.NumPorts; k++ {
			if enc.s.Model(enc.mvar[u][k]) {
				ps |= 1 << uint(k)
			}
		}
		buf[u] = ps
	}
	return buf
}

// mappingFromPorts assembles the string-keyed Mapping of a decoded
// candidate (only done for candidates that survive propagation).
func (in *Instance) mappingFromPorts(byUop []portmodel.PortSet) *portmodel.Mapping {
	m := portmodel.NewMapping(in.NumPorts)
	usage := make(map[string]portmodel.Usage)
	for u := range in.Uops {
		usage[in.Uops[u].Key] = append(usage[in.Uops[u].Key], portmodel.Uop{Ports: byUop[u], Count: 1})
	}
	for key, us := range usage {
		m.Set(key, us)
	}
	return m
}

// violation records one experiment the candidate mapping fails.
type violation struct {
	idx     int
	tooSlow bool
}

// learnViolations adds one lemma per violated experiment and asserts
// them into the live solver. Learning all violations at once sharply
// reduces the number of theory iterations. Too-slow lemmas need the
// bottleneck witness of the failing candidate, which the compiled
// propagator provides allocation-free, bit-identical to
// Mapping.BottleneckWitness.
func (in *Instance) learnViolations(enc *encoding, prop *Propagator, byUop []portmodel.PortSet, exps []MeasuredExp, vs []violation) error {
	for _, v := range vs {
		var err error
		if v.tooSlow {
			err = in.addTooSlowLemma(prop.witness(v.idx), byUop, exps[v.idx].Exp)
		} else {
			err = in.addTooFastLemma(byUop, exps[v.idx].Exp)
		}
		if err != nil {
			return err
		}
		if err := in.assertLastLemma(enc); err != nil {
			return errUnsatLemma
		}
	}
	return nil
}

// errUnsatLemma signals that asserting a lemma made the formula
// trivially unsatisfiable.
var errUnsatLemma = errors.New("smt: lemma closed the search space")

// addTooSlowLemma learns the down-set exclusion for a "model too
// slow" conflict: with q the bottleneck witness of the failing
// mapping, any mapping keeping every culprit µop inside q has
// mass(q) at least as large and is therefore at least as slow, so
// some culprit µop must gain a port outside q.
func (in *Instance) addTooSlowLemma(q portmodel.PortSet, byUop []portmodel.PortSet, e portmodel.Experiment) error {
	var lem []lemmaLit
	for ui, spec := range in.Uops {
		if e[spec.Key] == 0 {
			continue
		}
		if !byUop[ui].SubsetOf(q) {
			continue
		}
		for k := 0; k < in.NumPorts; k++ {
			if !q.Has(k) {
				lem = append(lem, lemmaLit{uop: int32(ui), port: int32(k), neg: false})
			}
		}
	}
	if len(lem) == 0 {
		return fmt.Errorf("smt: empty too-slow lemma (measurement outside any model value)")
	}
	in.lemmas = append(in.lemmas, lemma{lits: lem, src: e})
	return nil
}

// addTooFastLemma learns the up-set exclusion for a "model too fast"
// conflict: throughput is monotone non-increasing in added ports, so
// any mapping whose µop port sets are supersets of the failing one is
// also too fast; some participating µop must lose one of its current
// ports.
func (in *Instance) addTooFastLemma(byUop []portmodel.PortSet, e portmodel.Experiment) error {
	var lem []lemmaLit
	for ui, spec := range in.Uops {
		if e[spec.Key] == 0 {
			continue
		}
		for k := 0; k < in.NumPorts; k++ {
			if byUop[ui].Has(k) {
				lem = append(lem, lemmaLit{uop: int32(ui), port: int32(k), neg: true})
			}
		}
	}
	if len(lem) == 0 {
		return fmt.Errorf("smt: empty too-fast lemma")
	}
	in.lemmas = append(in.lemmas, lemma{lits: lem, src: e})
	return nil
}

// sameExp reports whether two experiments are the same multiset.
func sameExp(a, b portmodel.Experiment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// DropLemmasFrom removes every lemma derived from the given experiment
// and returns how many were dropped. It must be called whenever an
// experiment's TInv or Slack changes: lemmas learned under the old
// acceptance bound may exclude mappings the new bound accepts.
func (in *Instance) DropLemmasFrom(e portmodel.Experiment) int {
	kept := in.lemmas[:0]
	dropped := 0
	for i, lem := range in.lemmas {
		if sameExp(lem.src, e) {
			if dropped == 0 {
				in.invalidateFrom(i)
			}
			dropped++
			continue
		}
		kept = append(kept, lem)
	}
	in.lemmas = kept
	return dropped
}
