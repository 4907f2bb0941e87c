// Package sat implements a conflict-driven clause-learning (CDCL)
// boolean satisfiability solver with two-watched-literal propagation,
// first-UIP conflict analysis, VSIDS-style activity-based branching,
// and Luby-sequence restarts.
//
// It serves as the in-process replacement for the off-the-shelf SMT
// solver (z3) used by Ritter & Hack (ASPLOS 2024): package smt layers
// the port-mapping throughput theory on top of this solver in a
// DPLL(T)-style loop, adding theory lemmas as learned clauses.
//
// The data layout follows MiniSat (Eén & Sörensson, SAT 2003):
//
//   - Clauses of two or more literals live in one flat arena, each a
//     length header followed by its literals; watch lists and reasons
//     hold int32 arena offsets, so reading a clause's first literal is
//     one load from the arena. Clauses are never deleted.
//   - Values are indexed by literal, so the value of a literal is a
//     single load.
//   - Decisions come from a binary max-heap over the variables of
//     positive activity, ordered by (activity descending, variable
//     index ascending), and a bitset of the variables of zero activity,
//     taken in index order once the heap holds no unassigned variable.
//     Most variables of an encoding (cardinality counters, lex chains)
//     never take part in a conflict, so most picks and re-insertions
//     are bit operations. Assigned variables are dropped lazily when
//     they reach the front, unassigned ones re-inserted on backtrack.
//     Bumping a variable moves it from the bitset to the heap. The
//     activity rescale rebuilds the heap, because scaling can merge
//     distinct activities into ties (which the index tie-break must
//     decide) and underflow tiny ones to zero (which moves them to the
//     bitset).
//
// Invariant: the decision picked is exactly the unassigned variable of
// highest activity, the lowest index among equals — what a linear scan
// over all variables would pick. The search trajectory — every
// decision, propagation, conflict, learned clause and restart — is a
// pure function of the clauses, the assumptions and the call sequence,
// and the package's tests pin it: the SMT layer's lemmas, and with
// them the inferred mapping, depend on it.
package sat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Lit is a literal: a variable index with a sign. Variables are
// numbered from 1; literal encoding is 2*v for the positive literal
// and 2*v+1 for the negative literal (MiniSat convention).
type Lit int32

// NewLit builds a literal for variable v (v >= 1). neg selects the
// negative polarity.
func NewLit(v int, neg bool) Lit {
	if v < 1 {
		panic("sat: variable indices start at 1")
	}
	if v > math.MaxInt32>>1 {
		panic("sat: variable index out of range")
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

// cref is a clause reference: the arena offset of the clause's length
// header. Its literals follow the header.
type cref int32

// crefUndef is the reason of a decision, an assumption or a root-level
// unit, and the "no conflict" result of propagate.
const crefUndef cref = -1

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

	// arena stores every clause of two or more literals (problem and
	// learned) as a length header followed by the literals.
	arena []Lit

	// watches[lit] lists clauses watching lit.
	watches [][]cref

	vals    []lbool // indexed by literal
	level   []int   // decision level per variable
	reason  []cref  // per variable; crefUndef for decisions and units
	trail   []Lit
	trailLl []int // trail length at each decision level

	// propagatedTo is the trail prefix already unit-propagated.
	propagatedTo int

	activity []float64
	varInc   float64
	polarity []bool // phase saving

	// The decision order holds at least every unassigned variable:
	// those of zero activity as bits of zeroSet (words below zeroLo are
	// zero), the others in heap, a binary max-heap by (activity desc,
	// index asc). heapPos[v] is v's position in heap, -1 when absent.
	heap    []int32
	heapPos []int32
	zeroSet []uint64
	zeroLo  int

	// seen and learnt are conflict-analysis scratch; seen is all false
	// between calls.
	seen   []bool
	learnt []Lit

	// lubySeq is the next Luby restart index when the previous
	// SolveBudget call was interrupted (budget/ctx) mid-search, so a
	// resumed call continues the restart schedule instead of starting
	// over. Zero means the next call starts a fresh schedule. This is
	// what makes a budget-stepped search conflict-for-conflict
	// identical to an uninterrupted one: interruptions happen only at
	// restart boundaries, and resuming replays no work.
	lubySeq int

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
	return &Solver{varInc: 1, watches: make([][]cref, 2), vals: make([]lbool, 2)}
}

// NewVar adds a fresh variable and returns its index (>= 1).
func (s *Solver) NewVar() int {
	v := s.numVars
	s.numVars++
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.watches = append(s.watches, nil, nil)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	if v&63 == 0 {
		s.zeroSet = append(s.zeroSet, 0)
	}
	s.orderInsert(v)
	return s.numVars
}

// Clone returns an independent deep copy of the solver: clauses,
// assignment, decision order, search state and lifetime counters. The
// copy continues exactly as the original would, so solving a clone of
// an encoding follows the same trajectory as solving the encoding.
// The copy's clause arena has room for spare more literals (see
// ArenaSize), so a copy that learns about that much does not regrow
// it.
func (s *Solver) Clone(spare int) *Solver {
	c := *s
	c.arena = make([]Lit, len(s.arena), len(s.arena)+max(spare, 0))
	copy(c.arena, s.arena)
	c.watches = make([][]cref, len(s.watches))
	for i, w := range s.watches {
		c.watches[i] = slices.Clone(w)
	}
	c.vals = slices.Clone(s.vals)
	c.level = slices.Clone(s.level)
	c.reason = slices.Clone(s.reason)
	c.trail = slices.Clone(s.trail)
	c.trailLl = slices.Clone(s.trailLl)
	c.activity = slices.Clone(s.activity)
	c.polarity = slices.Clone(s.polarity)
	c.heap = slices.Clone(s.heap)
	c.heapPos = slices.Clone(s.heapPos)
	c.zeroSet = slices.Clone(s.zeroSet)
	c.seen = slices.Clone(s.seen)
	c.learnt = slices.Clone(s.learnt)
	c.failedAssumptions = slices.Clone(s.failedAssumptions)
	return &c
}

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return s.numVars }

// ArenaSize returns the length of the clause arena, in literals: every
// clause of two or more literals, problem or learned, takes its length
// plus one.
func (s *Solver) ArenaSize() int { return len(s.arena) }

// Stats returns (propagations, conflicts, decisions) counters.
func (s *Solver) Stats() (uint64, uint64, uint64) {
	return s.propagations, s.conflicts, s.decisions
}

func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// unassigned reports whether the variable with 0-based index v has no
// value.
func (s *Solver) unassigned(v int) bool { return s.vals[2*v+2] == lUndef }

// clauseLits returns the literals of clause c, aliasing the arena.
func (s *Solver) clauseLits(c cref) []Lit {
	n := cref(s.arena[c])
	return s.arena[c+1 : c+1+n]
}

func (s *Solver) decisionLevel() int { return len(s.trailLl) }

// AddClause adds a clause over the given literals. It must be called
// before Solve (or between Solve calls; the solver resets its trail).
// Returns ErrTrivialUnsat if the formula became unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) error {
	s.backtrackTo(0)
	// Normalize: dedupe, drop clauses with x and ¬x, drop false lits.
	slices.Sort(lits)
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
		if !s.enqueue(out[0], crefUndef) {
			s.rootUnsat = true
			return ErrTrivialUnsat
		}
		if s.propagate() != crefUndef {
			s.rootUnsat = true
			return ErrTrivialUnsat
		}
		return nil
	}
	s.attach(out)
	return nil
}

// attach stores a clause of two or more literals in the arena and
// watches its first two literals.
func (s *Solver) attach(lits []Lit) cref {
	if len(s.arena)+1+len(lits) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 literals")
	}
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	w0, w1 := lits[0].Not(), lits[1].Not()
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
	return c
}

// enqueue assigns literal l to true with the given reason clause.
// Returns false on conflict with the current assignment.
func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.vals[l], s.vals[l^1] = lTrue, lFalse
	v := l.Var() - 1
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation over the watched literals.
// Returns the conflicting clause, or crefUndef.
func (s *Solver) propagate() cref {
	qhead := s.propagatedTo
	for qhead < len(s.trail) {
		l := s.trail[qhead]
		qhead++
		s.propagations++
		ws := s.watches[l]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			lits := s.clauseLits(c)
			// Ensure lits[0] is the other watcher.
			if lits[0] == l.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for j := 2; j < len(lits); j++ {
				if s.value(lits[j]) != lFalse {
					lits[1], lits[j] = lits[j], lits[1]
					nw := lits[1].Not()
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
			if !s.enqueue(lits[0], c) {
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
	return crefUndef
}

// backtrackTo undoes assignments above the given decision level.
func (s *Solver) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLl[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var() - 1
		s.polarity[v] = !l.Neg()
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reason[v] = crefUndef
		s.orderInsert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLl = s.trailLl[:lvl]
	if s.propagatedTo > len(s.trail) {
		s.propagatedTo = len(s.trail)
	}
}

// analyze performs first-UIP conflict analysis. Returns the learned
// clause (asserting literal first), which aliases solver scratch valid
// until the next call, and the backjump level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learned := append(s.learnt[:0], 0) // placeholder for asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	c := confl
	for {
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range s.clauseLits(c)[start:] {
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
	// Every current-level variable was resolved away (and unmarked);
	// the rest of seen is exactly the learned clause's tail.
	for _, q := range learned[1:] {
		seen[q.Var()-1] = false
	}
	s.learnt = learned

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

// bumpVar raises v's activity, moving v from zeroSet into the heap on
// its first bump, and rescales every activity once one passes 1e100.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if w, bit := v>>6, uint64(1)<<(v&63); s.zeroSet[w]&bit != 0 {
		s.zeroSet[w] &^= bit
		s.heapInsert(v)
	} else if p := s.heapPos[v]; p >= 0 {
		s.heapUp(int(p))
	}
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.rebuildOrder()
	}
}

func (s *Solver) decayVar() { s.varInc /= varDecay }

// orderInsert returns variable v to the decision order, if absent.
func (s *Solver) orderInsert(v int) {
	if s.activity[v] == 0 {
		s.zeroSet[v>>6] |= 1 << (v & 63)
		s.zeroLo = min(s.zeroLo, v>>6)
	} else if s.heapPos[v] < 0 {
		s.heapInsert(v)
	}
}

// rebuildOrder restores the decision order after the activity
// rescale. Scaling keeps the order of activities but can merge
// distinct ones into ties, which the index tie-break must decide, and
// can underflow tiny ones to zero, which moves them to zeroSet.
func (s *Solver) rebuildOrder() {
	h := s.heap[:0]
	for _, v := range s.heap {
		if s.activity[v] == 0 {
			s.heapPos[v] = -1
			s.orderInsert(int(v))
		} else {
			s.heapPos[v] = int32(len(h))
			h = append(h, v)
		}
	}
	s.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

// pickBranchVar selects the unassigned variable with highest activity,
// the lowest index among equals, or -1 when every variable is assigned.
// Any variable of positive activity comes before every zero-activity
// one, and zero-activity ones come in index order.
func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := int(s.heap[0])
		s.heapRemoveTop()
		if s.unassigned(v) {
			return v
		}
	}
	for s.zeroLo < len(s.zeroSet) {
		w := s.zeroSet[s.zeroLo]
		if w == 0 {
			s.zeroLo++
			continue
		}
		s.zeroSet[s.zeroLo] = w & (w - 1)
		v := s.zeroLo<<6 | bits.TrailingZeros64(w)
		if s.unassigned(v) {
			return v
		}
	}
	return -1
}

// heapBefore reports whether variable a is ordered before b: higher
// activity first, then lower index.
func (s *Solver) heapBefore(a, b int32) bool {
	aa, ab := s.activity[a], s.activity[b]
	return aa > ab || (aa == ab && a < b)
}

func (s *Solver) heapInsert(v int) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, int32(v))
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapRemoveTop() {
	h := s.heap
	s.heapPos[h[0]] = -1
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		s.heapPos[h[0]] = 0
	}
	s.heap = h[:last]
	if last > 1 {
		s.heapDown(0)
	}
}

func (s *Solver) heapUp(i int) {
	h := s.heap
	v := h[i]
	for i > 0 {
		p := (i - 1) >> 1
		if !s.heapBefore(v, h[p]) {
			break
		}
		h[i] = h[p]
		s.heapPos[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	h := s.heap
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && s.heapBefore(h[c+1], h[c]) {
			c++
		}
		if !s.heapBefore(h[c], v) {
			break
		}
		h[i] = h[c]
		s.heapPos[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	s.heapPos[v] = int32(i)
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
	if s.propagate() != crefUndef {
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
		if confl != crefUndef {
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
				if !s.enqueue(learned[0], crefUndef) {
					s.rootUnsat = true
					s.lubySeq = 0
					return Unsat, nil
				}
			} else {
				c := s.attach(learned)
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
				s.enqueue(a, crefUndef)
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
		s.enqueue(NewLit(v+1, !s.polarity[v]), crefUndef)
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
	seen := s.seen
	seen[p.Var()-1] = true
	bound := s.trailLl[0]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var() - 1
		if !seen[v] {
			continue
		}
		if s.reason[v] == crefUndef {
			core = append(core, s.trail[i])
		} else {
			for _, q := range s.clauseLits(s.reason[v])[1:] {
				if s.level[q.Var()-1] > 0 {
					seen[q.Var()-1] = true
				}
			}
		}
		seen[v] = false
	}
	// ¬p itself is below the walk when it is a root consequence.
	seen[p.Var()-1] = false
	return core
}

// Model returns the value of variable v in the last satisfying
// assignment. Only valid immediately after Solve returned Sat.
func (s *Solver) Model(v int) bool {
	if v < 1 || v > s.numVars {
		panic(fmt.Sprintf("sat: variable %d out of range", v))
	}
	return s.value(Lit(v<<1)) == lTrue
}
