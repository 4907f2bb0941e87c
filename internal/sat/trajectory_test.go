package sat

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The search trajectory — every decision, propagation, conflict,
// learned clause and restart — is part of the solver's contract: the
// SMT layer's lemmas, and through them the inferred mapping, depend on
// which model the solver finds first. TestSearchTrajectoryPinned pins
// the exact counters and model of a few deterministic instances, so a
// change to the solver's data structures that alters a single step
// fails here rather than only in the end-to-end mapping goldens.

// trajectory is what one instance pins.
type trajectory struct {
	result    Result
	stats     Stats
	modelHash uint64 // FNV-1a over every model of the run; 0 when none
}

// modelHasher folds solver models and failed-assumption cores into
// one FNV-1a digest.
type modelHasher struct{ sum uint64 }

// fold replaces the digest by the hash of itself followed by b.
func (h *modelHasher) fold(b []byte) {
	f := fnv.New64a()
	f.Write(binary.LittleEndian.AppendUint64(nil, h.sum))
	f.Write(b)
	h.sum = f.Sum64()
}

// add folds in the model, one byte per variable.
func (h *modelHasher) add(s *Solver) {
	b := make([]byte, s.NumVars())
	for v := range b {
		if s.Model(v + 1) {
			b[v] = 1
		}
	}
	h.fold(b)
}

// addLits folds in a literal list, eight bytes per literal.
func (h *modelHasher) addLits(ls []Lit) {
	var b []byte
	for _, l := range ls {
		b = binary.LittleEndian.AppendUint64(b, uint64(l))
	}
	h.fold(b)
}

// random3SAT builds a seeded uniform random 3-SAT instance with
// round(ratio·n) clauses of three distinct variables each.
func random3SAT(t *testing.T, seed int64, n int, ratio float64) *Solver {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := NewSolver()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	m := int(ratio*float64(n) + 0.5)
	for i := 0; i < m; i++ {
		vs := r.Perm(n)[:3]
		cl := make([]Lit, 3)
		for j, v := range vs {
			cl[j] = NewLit(v+1, r.Intn(2) == 0)
		}
		if err := s.AddClause(cl...); err != nil {
			t.Fatalf("AddClause: %v", err)
		}
	}
	return s
}

// portMappingCEGAR mimics a stage-3 query of package smt at a size the
// campaign runs: nu µops × 10 ports membership variables, ExactlyK
// cardinality per µop, lex symmetry chains over adjacent port columns,
// a few hundred seeded lemma clauses, then a CEGAR-style loop that
// re-solves after blocking part of each model (with a fresh guard
// variable and an assumption on it every other round). It returns the
// final solver and the digest of every model found.
func portMappingCEGAR(t *testing.T, seed int64, nu, lemmas, rounds int) (*Solver, Result, uint64) {
	t.Helper()
	const np = 10
	r := rand.New(rand.NewSource(seed))
	s := NewSolver()
	add := func(ls ...Lit) {
		if err := s.AddClause(ls...); err != nil && err != ErrTrivialUnsat {
			t.Fatalf("AddClause: %v", err)
		}
	}
	m := make([][]Lit, nu)
	for u := range m {
		m[u] = make([]Lit, np)
		for k := range m[u] {
			m[u][k] = NewLit(s.NewVar(), false)
		}
	}
	for u := range m {
		if err := s.AddExactlyK(append([]Lit(nil), m[u]...), 2+u%3); err != nil {
			t.Fatalf("AddExactlyK: %v", err)
		}
	}
	// Column k ≥lex column k+1, with "equal so far" chain variables.
	for k := 0; k+1 < np; k++ {
		var prev Lit = -1
		for u := 0; u < nu; u++ {
			a, b := m[u][k], m[u][k+1]
			if prev < 0 {
				add(a, b.Not())
			} else {
				add(prev.Not(), a, b.Not())
			}
			if u == nu-1 {
				break
			}
			eq := NewLit(s.NewVar(), false)
			if prev >= 0 {
				add(eq.Not(), prev)
			}
			add(eq.Not(), a.Not(), b)
			add(eq.Not(), a, b.Not())
			prev = eq
		}
	}
	// Monotone lemmas in the shape of throughput-theory refinements:
	// one of two µops uses some port of a set.
	for i := 0; i < lemmas; i++ {
		var cl []Lit
		for _, u := range r.Perm(nu)[:2] {
			for _, k := range r.Perm(np)[:2+r.Intn(3)] {
				cl = append(cl, m[u][k])
			}
		}
		add(cl...)
	}
	var h modelHasher
	res := Unknown
	for round := 0; round < rounds; round++ {
		var assumptions []Lit
		if round%2 == 1 {
			g := NewLit(s.NewVar(), false)
			assumptions = append(assumptions, g)
			u := r.Intn(nu)
			add(g.Not(), m[u][r.Intn(np)], m[u][r.Intn(np)])
		}
		res = s.Solve(assumptions...)
		if res == Unsat && len(assumptions) > 0 {
			h.addLits(s.FailedAssumptions())
			continue
		}
		if res != Sat {
			break
		}
		h.add(s)
		// Block the model's port set of a few random µops.
		var cl []Lit
		for _, u := range r.Perm(nu)[:3] {
			for k := 0; k < np; k++ {
				if s.Model(m[u][k].Var()) {
					cl = append(cl, m[u][k].Not())
				}
			}
		}
		add(cl...)
	}
	return s, res, h.sum
}

func TestSearchTrajectoryPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) trajectory
		want trajectory
	}{
		{
			name: "random3sat-n200-r4.26",
			run: func(t *testing.T) trajectory {
				s := random3SAT(t, 2024, 200, 4.26)
				res := s.Solve()
				var h modelHasher
				if res == Sat {
					h.add(s)
				}
				return trajectory{res, s.StatsSnapshot(), h.sum}
			},
			want: trajectory{Sat, Stats{Propagations: 27962, Conflicts: 703, Decisions: 936, Restarts: 6, Learned: 703}, 0xc86aa976b681994d},
		},
		{
			// Every 4,490 conflicts or so the VSIDS increment passes
			// 1e100 and every activity is rescaled by 1e-100, which
			// rebuilds the decision order. The first conflict, on
			// x1 ∨ x2 and x1 ∨ ¬x2, bumps x2 once; x2 then never meets
			// a conflict again, so its activity underflows to zero at
			// the fourth rescale and leaves the heap.
			name: "php-9-8-stale-var",
			run: func(t *testing.T) trajectory {
				s := NewSolver()
				x1, x2 := s.NewVar(), s.NewVar()
				mustAdd(t, s, x1, x2)
				mustAdd(t, s, x1, -x2)
				addPHP(t, s, 9, 8)
				return trajectory{s.Solve(), s.StatsSnapshot(), 0}
			},
			want: trajectory{Unsat, Stats{Propagations: 392466, Conflicts: 30051, Decisions: 36908, Restarts: 139, Learned: 30047}, 0},
		},
		{
			name: "port-mapping-cegar",
			run: func(t *testing.T) trajectory {
				s, res, h := portMappingCEGAR(t, 7, 20, 300, 100)
				return trajectory{res, s.StatsSnapshot(), h}
			},
			want: trajectory{Sat, Stats{Propagations: 287543, Conflicts: 474, Decisions: 13118, Restarts: 1, Learned: 468}, 0x3b7b0d6c6b64abcf},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			t.Logf("%s: %v %+v model %#x", tc.name, got.result, got.stats, got.modelHash)
			if got != tc.want {
				t.Fatalf("trajectory changed:\n got %v %+v model %#x\nwant %v %+v model %#x",
					got.result, got.stats, got.modelHash, tc.want.result, tc.want.stats, tc.want.modelHash)
			}
		})
	}
}

// TestDecisionOrderMatchesLinearScan drives the decision order through
// random bumps, decisions, backtracks and activity rescales — with
// bump increments chosen to create ties and to underflow activities to
// zero — and checks every pick against a linear scan for the
// unassigned variable of highest activity, lowest index among equals.
func TestDecisionOrderMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	incs := []float64{1, 3, 1e-250, 4e-324, 4e-324, 9e99}
	for round := 0; round < 200; round++ {
		s := NewSolver()
		n := 1 + r.Intn(100)
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		scan := func() int {
			best, bestAct := -1, -1.0
			for v := 0; v < s.numVars; v++ {
				if s.unassigned(v) && s.activity[v] > bestAct {
					best, bestAct = v, s.activity[v]
				}
			}
			return best
		}
		for op := 0; op < 2000; op++ {
			switch k := r.Intn(20); {
			case k < 3:
				s.varInc = incs[r.Intn(len(incs))]
				s.bumpVar(r.Intn(n))
			case k < 19:
				want := scan()
				got := s.pickBranchVar()
				if got != want {
					t.Fatalf("round %d op %d: picked %d, linear scan picks %d", round, op, got, want)
				}
				if got >= 0 {
					s.trailLl = append(s.trailLl, len(s.trail))
					s.enqueue(NewLit(got+1, r.Intn(2) == 0), crefUndef)
				}
			default:
				s.backtrackTo(r.Intn(s.decisionLevel() + 1))
			}
		}
	}
}
