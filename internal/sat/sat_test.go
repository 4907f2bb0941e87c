package sat

import (
	"math"
	"math/rand"
	"testing"
)

func lits(s *Solver, vs ...int) []Lit {
	out := make([]Lit, len(vs))
	for i, v := range vs {
		if v > 0 {
			out[i] = NewLit(v, false)
		} else {
			out[i] = NewLit(-v, true)
		}
	}
	return out
}

func mustAdd(t *testing.T, s *Solver, vs ...int) {
	t.Helper()
	if err := s.AddClause(lits(s, vs...)...); err != nil {
		t.Fatalf("AddClause(%v): %v", vs, err)
	}
}

func TestTrivialSat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	mustAdd(t, s, a)
	if r := s.Solve(); r != Sat {
		t.Fatalf("result %v", r)
	}
	if !s.Model(a) {
		t.Fatal("unit clause not satisfied")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	mustAdd(t, s, a)
	if err := s.AddClause(lits(s, -a)...); err != ErrTrivialUnsat {
		t.Fatalf("expected ErrTrivialUnsat, got %v", err)
	}
	if r := s.Solve(); r != Unsat {
		t.Fatalf("result %v", r)
	}
}

func TestSmallUnsat(t *testing.T) {
	// (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ b) ∧ (¬a ∨ ¬b)
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	mustAdd(t, s, a, b)
	mustAdd(t, s, a, -b)
	mustAdd(t, s, -a, b)
	if err := s.AddClause(lits(s, -a, -b)...); err != nil && err != ErrTrivialUnsat {
		t.Fatal(err)
	}
	if r := s.Solve(); r != Unsat {
		t.Fatalf("result %v, want UNSAT", r)
	}
}

func TestImplicationChain(t *testing.T) {
	s := NewSolver()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		mustAdd(t, s, -vars[i], vars[i+1])
	}
	mustAdd(t, s, vars[0])
	if r := s.Solve(); r != Sat {
		t.Fatalf("result %v", r)
	}
	for i := range vars {
		if !s.Model(vars[i]) {
			t.Fatalf("chain variable %d not propagated", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons in 3 holes is UNSAT and requires real search.
	s := NewSolver()
	const pigeons, holes = 4, 3
	x := [pigeons][holes]int{}
	for p := 0; p < pigeons; p++ {
		for h := 0; h < holes; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = NewLit(x[p][h], false)
		}
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				mustAdd(t, s, -x[p1][h], -x[p2][h])
			}
		}
	}
	if r := s.Solve(); r != Unsat {
		t.Fatalf("PHP(4,3) = %v, want UNSAT", r)
	}
}

func TestPigeonholeSat(t *testing.T) {
	// PHP(3,3) is SAT.
	s := NewSolver()
	const n = 3
	x := [n][n]int{}
	for p := 0; p < n; p++ {
		for h := 0; h < n; h++ {
			x[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		cl := make([]Lit, n)
		for h := 0; h < n; h++ {
			cl[h] = NewLit(x[p][h], false)
		}
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				mustAdd(t, s, -x[p1][h], -x[p2][h])
			}
		}
	}
	if r := s.Solve(); r != Sat {
		t.Fatalf("PHP(3,3) = %v, want SAT", r)
	}
	// Verify the model is a proper assignment.
	for p := 0; p < n; p++ {
		cnt := 0
		for h := 0; h < n; h++ {
			if s.Model(x[p][h]) {
				cnt++
			}
		}
		if cnt < 1 {
			t.Fatalf("pigeon %d unplaced", p)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	mustAdd(t, s, -a, b) // a -> b
	if r := s.Solve(NewLit(a, false), NewLit(b, true)); r != Unsat {
		t.Fatalf("assumptions a ∧ ¬b should be UNSAT, got %v", r)
	}
	// The solver must remain usable without assumptions.
	if r := s.Solve(); r != Sat {
		t.Fatalf("formula without assumptions should be SAT, got %v", r)
	}
	if r := s.Solve(NewLit(a, false)); r != Sat {
		t.Fatalf("assumption a should be SAT, got %v", r)
	}
	if !s.Model(b) {
		t.Fatal("a -> b not propagated under assumption")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	mustAdd(t, s, a, -a) // tautology: dropped
	mustAdd(t, s, b, b)  // duplicate: collapses to unit
	if r := s.Solve(); r != Sat {
		t.Fatalf("result %v", r)
	}
	if !s.Model(b) {
		t.Fatal("duplicate-literal unit clause not enforced")
	}
}

func TestAddClauseUnknownVar(t *testing.T) {
	s := NewSolver()
	if err := s.AddClause(NewLit(3, false)); err == nil {
		t.Fatal("expected error for unknown variable")
	}
}

func TestLitHelpers(t *testing.T) {
	l := NewLit(5, false)
	if l.Var() != 5 || l.Neg() {
		t.Fatal("positive literal broken")
	}
	n := l.Not()
	if n.Var() != 5 || !n.Neg() {
		t.Fatal("negation broken")
	}
	if l.String() != "x5" || n.String() != "¬x5" {
		t.Fatalf("String: %q %q", l.String(), n.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewLit(0) should panic")
		}
	}()
	NewLit(0, false)
}

func TestResultString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Result.String broken")
	}
}

// brute checks satisfiability of a clause set by enumeration.
func brute(nvars int, clauses [][]int) bool {
	for m := 0; m < 1<<uint(nvars); m++ {
		ok := true
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				val := m&(1<<uint(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce fuzzes the solver against a
// brute-force enumerator on small random 3-SAT instances.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for it := 0; it < iters; it++ {
		nvars := 3 + r.Intn(8)
		nclauses := 2 + r.Intn(5*nvars)
		clauses := make([][]int, nclauses)
		for i := range clauses {
			k := 1 + r.Intn(3)
			cl := make([]int, k)
			for j := range cl {
				v := 1 + r.Intn(nvars)
				if r.Intn(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			clauses[i] = cl
		}
		want := brute(nvars, clauses)

		s := NewSolver()
		vars := make([]int, nvars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		rootUnsat := false
		for _, cl := range clauses {
			ls := make([]Lit, len(cl))
			for j, l := range cl {
				if l > 0 {
					ls[j] = NewLit(vars[l-1], false)
				} else {
					ls[j] = NewLit(vars[-l-1], true)
				}
			}
			if err := s.AddClause(ls...); err == ErrTrivialUnsat {
				rootUnsat = true
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		got := !rootUnsat && s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v clauses=%v", it, got, want, clauses)
		}
		if got {
			// Check the model actually satisfies all clauses.
			for _, cl := range clauses {
				ok := false
				for _, l := range cl {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == s.Model(vars[v-1]) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model violates clause %v", it, cl)
				}
			}
		}
	}
}

func countTrue(s *Solver, vars []int) int {
	n := 0
	for _, v := range vars {
		if s.Model(v) {
			n++
		}
	}
	return n
}

func TestAtMostK(t *testing.T) {
	for k := 0; k <= 5; k++ {
		s := NewSolver()
		vars := make([]int, 5)
		ls := make([]Lit, 5)
		for i := range vars {
			vars[i] = s.NewVar()
			ls[i] = NewLit(vars[i], false)
		}
		if err := s.AddAtMostK(ls, k); err != nil {
			t.Fatal(err)
		}
		if r := s.Solve(); r != Sat {
			t.Fatalf("k=%d: %v", k, r)
		}
		if got := countTrue(s, vars); got > k {
			t.Fatalf("k=%d: %d true", k, got)
		}
		// Forcing k+1 variables true must be UNSAT.
		if k < 5 {
			assum := make([]Lit, k+1)
			for i := 0; i <= k; i++ {
				assum[i] = NewLit(vars[i], false)
			}
			if r := s.Solve(assum...); r != Unsat {
				t.Fatalf("k=%d: forcing %d true gave %v", k, k+1, r)
			}
		}
	}
}

func TestAtLeastKAndExactlyK(t *testing.T) {
	for k := 0; k <= 4; k++ {
		s := NewSolver()
		vars := make([]int, 4)
		ls := make([]Lit, 4)
		for i := range vars {
			vars[i] = s.NewVar()
			ls[i] = NewLit(vars[i], false)
		}
		if err := s.AddExactlyK(ls, k); err != nil {
			t.Fatal(err)
		}
		if r := s.Solve(); r != Sat {
			t.Fatalf("k=%d: %v", k, r)
		}
		if got := countTrue(s, vars); got != k {
			t.Fatalf("k=%d: %d true", k, got)
		}
	}
	// k > n is UNSAT.
	s := NewSolver()
	v := s.NewVar()
	err := s.AddAtLeastK([]Lit{NewLit(v, false)}, 2)
	if err != ErrTrivialUnsat && s.Solve() != Unsat {
		t.Fatal("at-least-2-of-1 should be UNSAT")
	}
}

// TestExactlyKEnumeration enumerates all models of an exactly-k
// constraint via blocking clauses and checks the count is C(n,k).
func TestExactlyKEnumeration(t *testing.T) {
	s := NewSolver()
	n, k := 6, 3
	vars := make([]int, n)
	ls := make([]Lit, n)
	for i := range vars {
		vars[i] = s.NewVar()
		ls[i] = NewLit(vars[i], false)
	}
	if err := s.AddExactlyK(ls, k); err != nil {
		t.Fatal(err)
	}
	count := 0
	for s.Solve() == Sat {
		count++
		if count > 100 {
			t.Fatal("runaway enumeration")
		}
		// Block this projection onto vars.
		block := make([]Lit, n)
		for i, v := range vars {
			if s.Model(v) {
				block[i] = NewLit(v, true)
			} else {
				block[i] = NewLit(v, false)
			}
		}
		if err := s.AddClause(block...); err == ErrTrivialUnsat {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if count != 20 { // C(6,3)
		t.Fatalf("enumerated %d models, want 20", count)
	}
}

func TestStatsAdvance(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	mustAdd(t, s, a, b)
	mustAdd(t, s, -a, b)
	s.Solve()
	p, _, _ := s.Stats()
	if p == 0 {
		t.Fatal("no propagations recorded")
	}
}

// lubyRef is the textbook recursive definition, used as the oracle for
// the iterative implementation. Only valid for small i (it recurses).
func lubyRef(i int) int {
	for k := 1; ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return lubyRef(i - (1 << uint(k-1)) + 1)
		}
	}
}

func TestLubyTable(t *testing.T) {
	// The canonical prefix, straight from Luby, Sinclair & Zuckerman.
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
	for i := 1; i <= 64; i++ {
		if got, ref := luby(i), lubyRef(i); got != ref {
			t.Fatalf("luby(%d) = %d, reference = %d", i, got, ref)
		}
	}
}

func TestLubyLargeIndex(t *testing.T) {
	// A search resumed after budget exhaustion continues its restart
	// schedule (lubySeq), so the index grows over the whole stepped
	// search, not one call. Ends of complete subsequences: luby(2^k - 1) = 2^(k-1). The old
	// recursive implementation overflowed its shift bookkeeping (and
	// blew the stack) long before these indices.
	for k := uint(1); k <= 62; k++ {
		i := (1 << k) - 1
		if got, want := luby(i), 1<<(k-1); got != want {
			t.Fatalf("luby(2^%d-1) = %d, want %d", k, got, want)
		}
	}
	// Arbitrary huge indices must terminate and return a power of two
	// bounded by the enclosing subsequence.
	for _, i := range []int{1 << 40, (1 << 40) + 12345, math.MaxInt64, math.MaxInt64 - 7} {
		got := luby(i)
		if got < 1 || got&(got-1) != 0 {
			t.Fatalf("luby(%d) = %d, want a positive power of two", i, got)
		}
	}
	if got := luby(math.MaxInt64); got != 1<<62 {
		t.Fatalf("luby(MaxInt64) = %d, want 2^62", got)
	}
	// Defensive clamp for nonsensical indices.
	if got := luby(0); got != 1 {
		t.Fatalf("luby(0) = %d, want 1", got)
	}
}
