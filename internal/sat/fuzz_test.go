package sat

import (
	"slices"
	"testing"
)

// fuzzCNF decodes fuzz input into a CNF over at most 12 variables plus
// assumptions. Byte 0 gives the variable count (1 + b%12), byte 1 the
// assumption count (b%4), the next bytes the assumptions, and the rest
// the clauses: a 0 byte ends a clause, any other byte b is the literal
// of variable 1 + ((b-1)/2)%n, negative when b-1 is odd. Literals are
// signed ints, as brute takes them.
func fuzzCNF(data []byte) (nvars int, assumptions []int, clauses [][]int) {
	if len(data) < 2 {
		return 0, nil, nil
	}
	nvars = 1 + int(data[0])%12
	lit := func(b byte) int {
		v := 1 + int(b-1)/2%nvars
		if (b-1)&1 == 1 {
			return -v
		}
		return v
	}
	k := int(data[1]) % 4
	data = data[2:]
	for ; k > 0 && len(data) > 0; k-- {
		if data[0] != 0 {
			assumptions = append(assumptions, lit(data[0]))
		}
		data = data[1:]
	}
	var cl []int
	for _, b := range data {
		if b == 0 {
			clauses = append(clauses, cl)
			cl = nil
			continue
		}
		cl = append(cl, lit(b))
	}
	if cl != nil {
		clauses = append(clauses, cl)
	}
	return nvars, assumptions, clauses
}

// withUnits returns clauses plus one unit clause per literal.
func withUnits(clauses [][]int, units []int) [][]int {
	out := slices.Clone(clauses)
	for _, u := range units {
		out = append(out, []int{u})
	}
	return out
}

// FuzzSolveAgainstBruteForce checks the solver against exhaustive
// enumeration: the Sat/Unsat answer under assumptions, every Sat model,
// and every failed-assumption core, which must be a subset of the
// assumptions that is itself inconsistent with the clauses. A second,
// assumption-free Solve on the same solver checks that nothing learned
// under the assumptions leaks into the clause set.
func FuzzSolveAgainstBruteForce(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0})                         // x1 ∧ ¬x1
	f.Add([]byte{1, 2, 1, 3, 2, 4, 0})                      // ¬x1 ∨ ¬x2 under x1, x2
	f.Add([]byte{1, 1, 2, 1, 3, 0, 1, 4, 0, 2, 3, 0, 2, 4}) // all four 2-clauses over x1, x2
	f.Add([]byte{5, 3, 1, 3, 5, 1, 3, 5, 7, 9, 0, 2, 4, 0, 6, 8, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		nvars, assumptions, clauses := fuzzCNF(data)
		if nvars == 0 {
			return
		}
		s := NewSolver()
		for v := 1; v <= nvars; v++ {
			s.NewVar()
		}
		toLits := func(ls []int) []Lit {
			out := make([]Lit, len(ls))
			for i, l := range ls {
				out[i] = NewLit(max(l, -l), l < 0)
			}
			return out
		}
		for _, cl := range clauses {
			if err := s.AddClause(toLits(cl)...); err != nil && err != ErrTrivialUnsat {
				t.Fatalf("AddClause(%v): %v", cl, err)
			}
		}

		res := s.Solve(toLits(assumptions)...)
		want := brute(nvars, withUnits(clauses, assumptions))
		if (res == Sat) != want || res == Unknown {
			t.Fatalf("Solve = %v, brute force says sat=%v (clauses %v, assumptions %v)", res, want, clauses, assumptions)
		}
		if res == Sat {
			for _, cl := range withUnits(clauses, assumptions) {
				if !slices.ContainsFunc(cl, func(l int) bool { return s.Model(max(l, -l)) == (l > 0) }) {
					t.Fatalf("model violates clause %v", cl)
				}
			}
		} else {
			var core []int
			for _, l := range s.FailedAssumptions() {
				i := l.Var()
				if l.Neg() {
					i = -i
				}
				if !slices.Contains(assumptions, i) {
					t.Fatalf("failed assumption %v is not an assumption of %v", l, assumptions)
				}
				core = append(core, i)
			}
			if brute(nvars, withUnits(clauses, core)) {
				t.Fatalf("core %v is consistent with clauses %v", core, clauses)
			}
		}

		if got, want := s.Solve() == Sat, brute(nvars, clauses); got != want {
			t.Fatalf("assumption-free re-Solve sat=%v, brute force says %v", got, want)
		}
	})
}
