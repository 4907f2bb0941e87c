package sat

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestCloneContinuesIdentically: a clone taken mid-search is equal to
// the original, shares no state with it, and continues the search
// exactly as the original does — same result, counters and final
// state. The two searches advance in alternating budgeted steps, so
// state they shared would be overwritten by the other's steps.
func TestCloneContinuesIdentically(t *testing.T) {
	for name, s := range map[string]*Solver{
		"php-8-7":         buildPHP(t, 8, 7),
		"random3sat-n150": random3SAT(t, 7, 150, 4.26),
	} {
		t.Run(name, func(t *testing.T) {
			step := func(x *Solver) (Result, bool) {
				r, err := x.SolveBudget(context.Background(), &Budget{MaxConflicts: 50})
				if errors.Is(err, ErrBudgetExhausted) {
					return r, false
				}
				if err != nil {
					t.Fatal(err)
				}
				return r, true
			}
			if _, done := step(s); done {
				t.Fatal("the first step finished the search; want a search interrupted by the budget")
			}
			before, c := s.Clone(0), s.Clone(1000)
			if !reflect.DeepEqual(c, s) {
				t.Fatal("clone differs from the original")
			}
			rc, doneC := step(c)
			if !reflect.DeepEqual(s, before) {
				t.Fatal("stepping the clone changed the original")
			}
			rs, doneS := step(s)
			for !doneC || !doneS {
				if !doneC {
					rc, doneC = step(c)
				}
				if !doneS {
					rs, doneS = step(s)
				}
			}
			if rs != rc {
				t.Fatalf("original %v, clone %v", rs, rc)
			}
			if s.StatsSnapshot() != c.StatsSnapshot() || !reflect.DeepEqual(s, c) {
				t.Fatalf("original and clone diverged: %+v vs %+v", s.StatsSnapshot(), c.StatsSnapshot())
			}
		})
	}
}
