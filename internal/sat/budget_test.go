package sat

import (
	"context"
	"errors"
	"testing"
	"time"
)

// buildPHP encodes the pigeonhole principle PHP(pigeons, holes): every
// pigeon gets a hole, no hole holds two pigeons. UNSAT when
// pigeons > holes, and hard enough for CDCL to need real search.
func buildPHP(t *testing.T, pigeons, holes int) *Solver {
	t.Helper()
	s := NewSolver()
	addPHP(t, s, pigeons, holes)
	return s
}

// addPHP adds PHP(pigeons, holes) over fresh variables of s.
func addPHP(t *testing.T, s *Solver, pigeons, holes int) {
	t.Helper()
	x := make([][]int, pigeons)
	for p := 0; p < pigeons; p++ {
		x[p] = make([]int, holes)
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		row := make([]int, holes)
		copy(row, x[p])
		mustAdd(t, s, row...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				mustAdd(t, s, -x[p1][h], -x[p2][h])
			}
		}
	}
}

func TestBudgetConflictsExhausted(t *testing.T) {
	s := buildPHP(t, 8, 7)
	b := &Budget{MaxConflicts: 10}
	r, err := s.SolveBudget(context.Background(), b)
	if r != Unknown {
		t.Fatalf("SolveBudget = %v, want Unknown", r)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BudgetError", err)
	}
	if be.Resource != "conflicts" {
		t.Fatalf("Resource = %q, want conflicts", be.Resource)
	}
	if c, _, _ := b.Used(); c < b.MaxConflicts {
		t.Fatalf("Used conflicts = %d, want >= %d", c, b.MaxConflicts)
	}
}

func TestBudgetPropagationsAndDecisions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		budget   Budget
		resource string
	}{
		{"propagations", Budget{MaxPropagations: 5}, "propagations"},
		{"decisions", Budget{MaxDecisions: 2}, "decisions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildPHP(t, 8, 7)
			b := tc.budget
			r, err := s.SolveBudget(context.Background(), &b)
			if r != Unknown || !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("SolveBudget = %v, %v; want Unknown, budget exhausted", r, err)
			}
			var be *BudgetError
			if !errors.As(err, &be) || be.Resource != tc.resource {
				t.Fatalf("err = %v, want *BudgetError{%s}", err, tc.resource)
			}
		})
	}
}

func TestBudgetDeadline(t *testing.T) {
	s := buildPHP(t, 8, 7)
	b := &Budget{Deadline: time.Now().Add(-time.Second)}
	r, err := s.SolveBudget(context.Background(), b)
	if r != Unknown || !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("SolveBudget = %v, %v; want Unknown, budget exhausted", r, err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Fatalf("err = %v, want deadline BudgetError", err)
	}
}

func TestBudgetZeroNeverExhausts(t *testing.T) {
	s := buildPHP(t, 4, 3)
	b := &Budget{} // all zero fields = unlimited
	r, err := s.SolveBudget(context.Background(), b)
	if r != Unsat || err != nil {
		t.Fatalf("SolveBudget = %v, %v; want Unsat, nil", r, err)
	}
	if c, p, d := b.Used(); c == 0 || p == 0 || d == 0 {
		t.Fatalf("Used() = %d,%d,%d; want all non-zero", c, p, d)
	}
}

func TestBudgetCumulativeAcrossSolves(t *testing.T) {
	// One budget shared by consecutive Solve calls covers the whole
	// query: the second call starts from the first call's consumption.
	s := buildPHP(t, 8, 7)
	b := &Budget{MaxConflicts: 20}
	if r, err := s.SolveBudget(context.Background(), b); r != Unknown || !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("first SolveBudget = %v, %v; want exhausted", r, err)
	}
	c0, _, _ := b.Used()
	r, err := s.SolveBudget(context.Background(), b)
	if r != Unknown || !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second SolveBudget = %v, %v; want exhausted", r, err)
	}
	if c1, _, _ := b.Used(); c1 < c0 {
		t.Fatalf("cumulative conflicts went backwards: %d -> %d", c0, c1)
	}
}

func TestBudgetDeterministicStop(t *testing.T) {
	// Count-limited stops must land on the same counters every time.
	run := func() (uint64, uint64, uint64) {
		s := buildPHP(t, 8, 7)
		b := &Budget{MaxConflicts: 50}
		if r, err := s.SolveBudget(context.Background(), b); r != Unknown || err == nil {
			t.Fatalf("SolveBudget = %v, %v; want Unknown + error", r, err)
		}
		return b.Used()
	}
	c1, p1, d1 := run()
	c2, p2, d2 := run()
	if c1 != c2 || p1 != p2 || d1 != d2 {
		t.Fatalf("non-deterministic stop: (%d,%d,%d) vs (%d,%d,%d)", c1, p1, d1, c2, p2, d2)
	}
}

func TestSolveBudgetCancellation(t *testing.T) {
	s := buildPHP(t, 8, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := s.SolveBudget(ctx, nil)
	if r != Unknown || !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveBudget = %v, %v; want Unknown, context.Canceled", r, err)
	}
	// The solver must remain usable after cancellation.
	if r := s.Solve(); r != Unsat {
		t.Fatalf("Solve after cancel = %v, want Unsat", r)
	}
}

func TestSolverUsableAfterExhaustion(t *testing.T) {
	s := buildPHP(t, 8, 7)
	b := &Budget{MaxConflicts: 3}
	if r, err := s.SolveBudget(context.Background(), b); r != Unknown || err == nil {
		t.Fatalf("SolveBudget = %v, %v; want Unknown + error", r, err)
	}
	// Unlimited re-solve finishes the search with the learned clauses kept.
	if r := s.Solve(); r != Unsat {
		t.Fatalf("Solve after exhaustion = %v, want Unsat", r)
	}
}

func TestFailedAssumptionsCore(t *testing.T) {
	// x1..x4 with (¬x1 ∨ ¬x2): assuming x1, x2, x3 is UNSAT and the
	// core must implicate x1 and x2 but not x3.
	s := NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	_ = s.NewVar()
	mustAdd(t, s, -a, -b)
	la, lb, lc := NewLit(a, false), NewLit(b, false), NewLit(c, false)
	if r := s.Solve(la, lb, lc); r != Unsat {
		t.Fatalf("Solve = %v, want Unsat", r)
	}
	core := s.FailedAssumptions()
	if len(core) == 0 {
		t.Fatal("FailedAssumptions() empty, want a core")
	}
	got := map[Lit]bool{}
	for _, l := range core {
		got[l] = true
	}
	if !got[la] || !got[lb] {
		t.Fatalf("core %v must contain both %v and %v", core, la, lb)
	}
	if got[lc] {
		t.Fatalf("core %v must not contain irrelevant assumption %v", core, lc)
	}
}

func TestFailedAssumptionsContradictoryPair(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	mustAdd(t, s, a, b) // keep the formula non-trivial
	la := NewLit(a, false)
	if r := s.Solve(la, la.Not()); r != Unsat {
		t.Fatalf("Solve = %v, want Unsat", r)
	}
	core := s.FailedAssumptions()
	got := map[Lit]bool{}
	for _, l := range core {
		got[l] = true
	}
	if !got[la] || !got[la.Not()] {
		t.Fatalf("core %v, want {%v, %v}", core, la, la.Not())
	}
}

func TestFailedAssumptionsNilOnStructuralUnsat(t *testing.T) {
	// Formula UNSAT regardless of assumptions: no assumptions implicated.
	s := buildPHP(t, 4, 3)
	extra := s.NewVar()
	if r := s.Solve(NewLit(extra, false)); r != Unsat {
		t.Fatalf("Solve = %v, want Unsat", r)
	}
	if core := s.FailedAssumptions(); core != nil {
		t.Fatalf("FailedAssumptions() = %v, want nil for structural UNSAT", core)
	}
}

func TestFailedAssumptionsRootImpliedFalse(t *testing.T) {
	// Unit clause ¬a makes assumption a false at level 0: the core is
	// {a} alone.
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	mustAdd(t, s, -a)
	la := NewLit(a, false)
	if r := s.Solve(la, NewLit(b, false)); r != Unsat {
		t.Fatalf("Solve = %v, want Unsat", r)
	}
	core := s.FailedAssumptions()
	if len(core) != 1 || core[0] != la {
		t.Fatalf("core = %v, want [%v]", core, la)
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := buildPHP(t, 6, 5)
	if r := s.Solve(); r != Unsat {
		t.Fatalf("Solve = %v, want Unsat", r)
	}
	st := s.StatsSnapshot()
	if st.Conflicts == 0 || st.Propagations == 0 || st.Decisions == 0 {
		t.Fatalf("StatsSnapshot() = %+v; want non-zero core counters", st)
	}
	if st.Learned == 0 {
		t.Fatalf("StatsSnapshot() = %+v; want learned clauses on PHP", st)
	}
	p, c, d := s.Stats()
	if p != st.Propagations || c != st.Conflicts || d != st.Decisions {
		t.Fatalf("Stats() = %d,%d,%d disagrees with snapshot %+v", p, c, d, st)
	}
}

func TestBudgetErrorMessage(t *testing.T) {
	e := &BudgetError{Resource: "conflicts", Limit: 10, Used: 12}
	if e.Error() == "" || !errors.Is(e, ErrBudgetExhausted) {
		t.Fatalf("BudgetError not wired: %v", e)
	}
	d := &BudgetError{Resource: "deadline"}
	if d.Error() == "" {
		t.Fatal("deadline BudgetError has empty message")
	}
}

func TestSteppedSolveMatchesUninterrupted(t *testing.T) {
	// A query resumed after budget exhaustion must neither repeat nor
	// skip search. Because budget stops land only on Luby restart
	// boundaries and a resumed call continues the restart schedule, a
	// search chopped into many small budgeted steps must visit exactly
	// the same conflicts as one uninterrupted call: same answer, same
	// final counters.
	ref := buildPHP(t, 8, 7)
	if r := ref.Solve(); r != Unsat {
		t.Fatalf("reference Solve = %v, want Unsat", r)
	}
	refStats := ref.StatsSnapshot()

	stepped := buildPHP(t, 8, 7)
	b := &Budget{}
	var r Result
	var err error
	for steps := 0; ; steps++ {
		if steps > 100000 {
			t.Fatal("stepped solve did not terminate")
		}
		b.MaxConflicts += 50
		r, err = stepped.SolveBudget(context.Background(), b)
		if errors.Is(err, ErrBudgetExhausted) {
			continue
		}
		if err != nil {
			t.Fatalf("SolveBudget error: %v", err)
		}
		break
	}
	if r != Unsat {
		t.Fatalf("stepped Solve = %v, want Unsat", r)
	}
	if got := stepped.StatsSnapshot(); got != refStats {
		t.Fatalf("stepped trajectory diverged from uninterrupted:\n got %+v\nwant %+v", got, refStats)
	}
}
