// Package sat implements a conflict-driven clause-learning (CDCL)
// boolean satisfiability solver with two-watched-literal propagation,
// first-UIP conflict analysis, VSIDS-style activity-based branching,
// and Luby-sequence restarts.
//
// It serves as the in-process replacement for the off-the-shelf SMT
// solver (z3) used by Ritter & Hack (ASPLOS 2024): package smt layers
// the port-mapping throughput theory on top of this solver in a
// DPLL(T)-style loop, adding theory lemmas as learned clauses.
package sat

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Lit is a literal: a variable index with a sign. Variables are
// numbered from 1; literal encoding is 2*v for the positive literal
// and 2*v+1 for the negative literal (MiniSat convention).
type Lit int

// NewLit builds a literal for variable v (v >= 1). neg selects the
// negative polarity.
func NewLit(v int, neg bool) Lit {
	if v < 1 {
		panic("sat: variable indices start at 1")
	}
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l) >> 1 }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal like "x3" or "¬x3".
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("¬x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// Result is the outcome of a Solve call.
type Result int

// Solve outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// ErrTrivialUnsat is returned by AddClause when the clause set became
// unsatisfiable at level 0.
var ErrTrivialUnsat = errors.New("sat: formula is trivially unsatisfiable")

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with NewSolver.
type Solver struct {
	numVars int

	clauses []*clause // problem + learned clauses

	// watches[lit] lists clauses watching lit.
	watches [][]*clause

	assign  []lbool // indexed by variable
	level   []int   // decision level per variable
	reason  []*clause
	trail   []Lit
	trailLl []int // trail length at each decision level

	// propagatedTo is the trail prefix already unit-propagated.
	propagatedTo int

	activity []float64
	varInc   float64
	polarity []bool // phase saving

	// lubySeq is the next Luby restart index when the previous
	// SolveBudget call was interrupted (budget/ctx) mid-search, so a
	// resumed call continues the restart schedule instead of starting
	// over. Zero means the next call starts a fresh schedule. This is
	// what makes a budget-stepped search conflict-for-conflict
	// identical to an uninterrupted one: interruptions happen only at
	// restart boundaries, and resuming replays no work.
	lubySeq int

	order []int // lazily sorted decision order scratch

	propagations uint64
	conflicts    uint64
	decisions    uint64
	restarts     uint64
	learnedN     uint64

	// failedAssumptions is the final-conflict core of the last
	// assumption-based Solve that returned Unsat: a subset of the
	// assumption literals that is already inconsistent with the
	// clause set. Nil when the last Unsat was independent of the
	// assumptions (the formula itself is unsatisfiable).
	failedAssumptions []Lit

	rootUnsat bool
}

// Search heuristics: every restart is budgeted lubyUnit times the
// next Luby number of conflicts, VSIDS activities decay by varDecay
// per conflict, and fresh variables branch negative-first.
const (
	lubyUnit = 64
	varDecay = 0.95
)

// NewSolver creates a solver with no variables.
func NewSolver() *Solver {
	return &Solver{varInc: 1, watches: make([][]*clause, 2)}
}

// NewVar adds a fresh variable and returns its index (>= 1).
func (s *Solver) NewVar() int {
	s.numVars++
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.watches = append(s.watches, nil, nil)
	return s.numVars
}

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return s.numVars }

// Stats returns (propagations, conflicts, decisions) counters.
func (s *Solver) Stats() (uint64, uint64, uint64) {
	return s.propagations, s.conflicts, s.decisions
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()-1]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLl) }

// AddClause adds a clause over the given literals. It must be called
// before Solve (or between Solve calls; the solver resets its trail).
// Returns ErrTrivialUnsat if the formula became unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) error {
	s.backtrackTo(0)
	// Normalize: dedupe, drop clauses with x and ¬x, drop false lits.
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
	out := lits[:0]
	for i, l := range lits {
		if l.Var() < 1 || l.Var() > s.numVars {
			return fmt.Errorf("sat: literal %v references unknown variable", l)
		}
		if i > 0 && l == lits[i-1] {
			continue
		}
		if i > 0 && l == lits[i-1].Not() {
			return nil // tautology
		}
		switch s.value(l) {
		case lTrue:
			return nil // already satisfied at root
		case lFalse:
			continue // drop root-false literal
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.rootUnsat = true
		return ErrTrivialUnsat
	case 1:
		if !s.enqueue(out[0], nil) {
			s.rootUnsat = true
			return ErrTrivialUnsat
		}
		if s.propagate() != nil {
			s.rootUnsat = true
			return ErrTrivialUnsat
		}
		return nil
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return nil
}

func (s *Solver) attach(c *clause) {
	w0, w1 := c.lits[0].Not(), c.lits[1].Not()
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
}

// enqueue assigns literal l to true with the given reason clause.
// Returns false on conflict with the current assignment.
func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var() - 1
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation over the watched literals.
// Returns the conflicting clause, or nil.
func (s *Solver) propagate() *clause {
	qhead := s.propagatedTo
	for qhead < len(s.trail) {
		l := s.trail[qhead]
		qhead++
		s.propagations++
		ws := s.watches[l]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure c.lits[0] is the other watcher.
			if c.lits[0] == l.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for j := 2; j < len(c.lits); j++ {
				if s.value(c.lits[j]) != lFalse {
					c.lits[1], c.lits[j] = c.lits[j], c.lits[1]
					nw := c.lits[1].Not()
					s.watches[nw] = append(s.watches[nw], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep remaining watchers and bail.
				kept = append(kept, ws[i+1:]...)
				s.watches[l] = kept
				s.propagatedTo = len(s.trail)
				return c
			}
		}
		s.watches[l] = kept
	}
	s.propagatedTo = qhead
	return nil
}

// backtrackTo undoes assignments above the given decision level.
func (s *Solver) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLl[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var() - 1
		s.polarity[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.trailLl = s.trailLl[:lvl]
	if s.propagatedTo > len(s.trail) {
		s.propagatedTo = len(s.trail)
	}
}

// analyze performs first-UIP conflict analysis. Returns the learned
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learned := []Lit{0} // placeholder for asserting literal
	seen := make([]bool, s.numVars)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	c := confl
	for {
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var() - 1
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Pick the next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()-1] {
			idx--
		}
		p = s.trail[idx]
		c = s.reason[p.Var()-1]
		seen[p.Var()-1] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learned[0] = p.Not()

	// Compute backjump level: max level among non-asserting literals.
	bjLevel := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()-1] > s.level[learned[maxI].Var()-1] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		bjLevel = s.level[learned[1].Var()-1]
	}
	return learned, bjLevel
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

func (s *Solver) decayVar() { s.varInc /= varDecay }

// pickBranchVar selects the unassigned variable with highest activity.
func (s *Solver) pickBranchVar() int {
	best, bestAct := -1, -1.0
	for v := 0; v < s.numVars; v++ {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// luby returns the i-th element (1-based) of the Luby restart
// sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... Iterative and
// overflow-safe for any int index: all intermediate values are powers
// of two (minus one) computed in uint64, which cannot wrap for
// i <= MaxInt64.
func luby(i int) int {
	if i < 1 {
		return 1
	}
	x := uint64(i - 1) // 0-based position
	// Find the smallest complete subsequence (length 2^seq - 1)
	// containing position x.
	size, seq := uint64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	// Descend into nested subsequences until x is the final element.
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// Solve determines satisfiability of the clause set under the given
// assumption literals. On Sat, Model reports variable values. It is
// SolveBudget with no cancellation and no budget.
func (s *Solver) Solve(assumptions ...Lit) Result {
	r, _ := s.SolveBudget(context.Background(), nil, assumptions...)
	return r
}

// SolveBudget is Solve under supervision: the search observes ctx and
// charges its conflicts/propagations/decisions against budget (nil =
// unlimited). Both are consulted only on entry and at Luby restart
// boundaries, so for the count limits the stopping point is a
// deterministic function of the formula, not of wall-clock speed.
// When the search is stopped early the solver backtracks to the root
// and returns (Unknown, err) where err is the ctx error or a
// *BudgetError matching ErrBudgetExhausted; the solver remains usable
// (clauses learned so far are kept, and a later call resumes cheaper).
//
// A resumed call continues the Luby restart schedule where the
// interrupted one left off, so chopping one search into many budgeted
// steps visits exactly the same conflicts in the same order as a
// single uninterrupted call: a search resumed after budget exhaustion
// repeats no work and skips none.
//
// On Unsat under assumptions, FailedAssumptions reports the
// final-conflict core.
func (s *Solver) SolveBudget(ctx context.Context, budget *Budget, assumptions ...Lit) (Result, error) {
	s.failedAssumptions = nil
	if s.rootUnsat {
		s.lubySeq = 0
		return Unsat, nil
	}

	// lastC/lastP/lastD are the counter values already charged to the
	// budget; settle charges only the delta since the previous call so
	// one shared Budget can supervise many Solve calls cumulatively.
	lastC, lastP, lastD := s.conflicts, s.propagations, s.decisions
	settle := func() {
		if budget != nil {
			budget.add(s.conflicts-lastC, s.propagations-lastP, s.decisions-lastD)
			lastC, lastP, lastD = s.conflicts, s.propagations, s.decisions
		}
	}
	defer settle()
	supervise := func() error {
		settle()
		if err := ctx.Err(); err != nil {
			return err
		}
		return budget.check()
	}

	if err := supervise(); err != nil {
		s.backtrackTo(0)
		return Unknown, err
	}

	s.backtrackTo(0)
	if s.propagate() != nil {
		s.rootUnsat = true
		s.lubySeq = 0
		return Unsat, nil
	}

	restartNum := s.lubySeq
	if restartNum < 1 {
		restartNum = 1
	}
	conflictBudget := lubyUnit * luby(restartNum)
	conflictsHere := 0

	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.rootUnsat = true
				s.lubySeq = 0
				return Unsat, nil
			}
			learned, bjLevel := s.analyze(confl)
			s.backtrackTo(bjLevel)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					s.rootUnsat = true
					s.lubySeq = 0
					return Unsat, nil
				}
			} else {
				c := &clause{lits: learned, learned: true}
				s.attach(c)
				s.clauses = append(s.clauses, c)
				s.learnedN++
				s.enqueue(learned[0], c)
			}
			s.decayVar()
			continue
		}

		if conflictsHere >= conflictBudget {
			// Restart boundary: the only supervision point inside the
			// search, so count-limited and cancelled queries always
			// stop at a Luby-aligned state.
			s.restarts++
			restartNum++
			conflictBudget = lubyUnit * luby(restartNum)
			conflictsHere = 0
			s.backtrackTo(0)
			if err := supervise(); err != nil {
				s.lubySeq = restartNum
				return Unknown, err
			}
			continue
		}

		// All assumptions satisfied?
		assumptionsOK := true
		for _, a := range assumptions {
			switch s.value(a) {
			case lFalse:
				// The trail falsifies assumption a: extract which
				// assumptions that falsification depended on.
				s.failedAssumptions = s.analyzeFinal(a)
				s.lubySeq = 0
				return Unsat, nil
			case lUndef:
				assumptionsOK = false
				s.trailLl = append(s.trailLl, len(s.trail))
				s.enqueue(a, nil)
			}
			if !assumptionsOK {
				break
			}
		}
		if !assumptionsOK {
			continue
		}

		v := s.pickBranchVar()
		if v == -1 {
			s.lubySeq = 0
			return Sat, nil
		}
		s.decisions++
		s.trailLl = append(s.trailLl, len(s.trail))
		s.enqueue(NewLit(v+1, !s.polarity[v]), nil)
	}
}

// FailedAssumptions returns the final-conflict core of the last Solve
// that returned Unsat under assumptions: a subset of the assumption
// literals already inconsistent with the clause set. Nil when the
// formula is unsatisfiable on its own (no assumptions implicated).
// The core is sound but not necessarily minimal.
func (s *Solver) FailedAssumptions() []Lit {
	if s.failedAssumptions == nil {
		return nil
	}
	return append([]Lit(nil), s.failedAssumptions...)
}

// analyzeFinal computes the subset of assumption literals implied in
// falsifying assumption p (MiniSat's analyzeFinal): it walks the
// implication graph from ¬p back to the decisions it depends on. At
// the point Solve detects a false assumption, every reason-free trail
// literal above level 0 is an enqueued assumption, so exactly those
// are collected.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	core := []Lit{p}
	if s.decisionLevel() == 0 {
		// ¬p is a root consequence of the clause set: p alone is
		// inconsistent with the formula.
		return core
	}
	seen := make([]bool, s.numVars)
	seen[p.Var()-1] = true
	bound := s.trailLl[0]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var() - 1
		if !seen[v] {
			continue
		}
		if s.reason[v] == nil {
			core = append(core, s.trail[i])
		} else {
			for _, q := range s.reason[v].lits[1:] {
				if s.level[q.Var()-1] > 0 {
					seen[q.Var()-1] = true
				}
			}
		}
		seen[v] = false
	}
	return core
}

// Model returns the value of variable v in the last satisfying
// assignment. Only valid immediately after Solve returned Sat.
func (s *Solver) Model(v int) bool {
	if v < 1 || v > s.numVars {
		panic(fmt.Sprintf("sat: variable %d out of range", v))
	}
	return s.assign[v-1] == lTrue
}
