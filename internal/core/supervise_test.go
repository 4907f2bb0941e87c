package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"zenport/internal/sat"
	"zenport/internal/zen"
)

// TestPipelineSupervisionTelemetry: an ordinary run must surface the
// solver's work in the report — queries, conflicts, propagations —
// and leave nothing unresolved or relaxed.
func TestPipelineSupervisionTelemetry(t *testing.T) {
	db := zen.Build()
	p, _ := newZenPipeline(t, goldenSubset(db), 42)
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supervision == nil {
		t.Fatal("no supervision summary on a completed run")
	}
	s := rep.Supervision.Solver
	if s.Queries == 0 || s.TheoryIterations == 0 {
		t.Errorf("solver telemetry empty: %+v", s)
	}
	if s.Solver.Decisions == 0 || s.Solver.Propagations == 0 {
		t.Errorf("CDCL counters empty: %+v", s.Solver)
	}
	if len(rep.Unresolved) != 0 || len(rep.Relaxed) != 0 {
		t.Errorf("clean run flagged unresolved=%v relaxed=%v", rep.Unresolved, rep.Relaxed)
	}
	if rep.Supervision.BudgetStops != 0 || len(rep.Supervision.Cores) != 0 {
		t.Errorf("clean unlimited run reported budget stops or cores: %+v", rep.Supervision)
	}
}

// TestPipelineBudgetDegrades: with a solver budget too small for even
// one query (an already-expired deadline, caught at Solve entry), the
// pipeline must not die — stage 3 degrades to an empty blocker mapping
// with every blocker flagged Unresolved, and stage 4 in turn leaves
// its schemes unresolved instead of failing on the missing blocking
// suite.
func TestPipelineBudgetDegrades(t *testing.T) {
	db := zen.Build()
	p, _ := newZenPipeline(t, goldenSubset(db), 42)
	p.Opts.SolverBudget = sat.Budget{Deadline: time.Now().Add(-time.Second)}
	rep, err := p.Run()
	if err != nil {
		t.Fatalf("budget-starved run died: %v", err)
	}
	if rep.Supervision == nil || rep.Supervision.BudgetStops == 0 {
		t.Fatal("no budget stop recorded")
	}
	if len(rep.Unresolved) == 0 {
		t.Fatal("budget-starved run left nothing unresolved")
	}
	if rep.Final == nil {
		t.Fatal("no final mapping emitted")
	}
	// The no-port schemes need no solver and must still be present.
	for _, key := range []string{"nop", "mov GPR[64], GPR[64]"} {
		if u, ok := rep.Final.Get(key); !ok || len(u) != 0 {
			t.Errorf("%s: final usage %v, %v — want present and empty", key, u, ok)
		}
	}
	// Unresolved schemes are absent from the mapping, not guessed.
	for _, key := range rep.Unresolved {
		if _, ok := rep.Final.Get(key); ok {
			t.Errorf("unresolved scheme %s present in final mapping", key)
		}
	}
}

// TestPipelineBudgetAcceptsUnproven: a propagation budget that lets
// small satisfiability queries finish but trips on the (much larger)
// uniqueness search must make stage 3 accept the current consistent
// mapping — unproven, but usable — rather than abort, and stage 4
// still characterizes against it.
func TestPipelineBudgetAcceptsUnproven(t *testing.T) {
	db := zen.Build()
	p, _ := newZenPipeline(t, goldenSubset(db), 42)
	p.Opts.SolverBudget = sat.Budget{MaxPropagations: 1}
	rep, err := p.Run()
	if err != nil {
		t.Fatalf("budget-limited run died: %v", err)
	}
	if rep.Supervision.BudgetStops == 0 {
		t.Fatal("no budget stop recorded")
	}
	if rep.BlockerMapping == nil || len(rep.BlockerMapping.Usage) == 0 {
		t.Fatal("no blocker mapping accepted")
	}
	if len(rep.Characterized) == 0 {
		t.Fatal("stage 4 characterized nothing against the accepted mapping")
	}
}

// TestPipelineRetryUnresolvedOnResume: resuming a completed-but-
// degraded run must retry exactly the unresolved schemes and fold the
// recovered results into the final mapping, leaving everything else
// untouched.
func TestPipelineRetryUnresolvedOnResume(t *testing.T) {
	db := zen.Build()
	dir := t.TempDir()
	p1, proc1 := newPersistedPipeline(t, dir, goldenSubset(db), 4, math.MaxInt64, false)
	rep1, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	fullCalls := proc1.calls.Load()
	const key = "add GPR[32], MEM[32]"
	want, ok := rep1.Characterized[key]
	if !ok {
		t.Fatalf("%s not characterized in reference run", key)
	}

	// Doctor the final checkpoint into the shape a vote-failure
	// degradation leaves behind: the scheme excluded as char-unstable,
	// flagged unresolved, and absent from the final mapping.
	rep1.Excluded[key] = ExclCharUnstable
	delete(rep1.Characterized, key)
	rep1.Unresolved = []string{key}
	rep1.Final = p1.assembleFinal(rep1)
	if _, ok := rep1.Final.Get(key); ok {
		t.Fatal("doctored mapping still contains the scheme")
	}
	if err := p1.save(4, rep1, nil); err != nil {
		t.Fatal(err)
	}

	p2, proc := newPersistedPipeline(t, dir, goldenSubset(db), 4, math.MaxInt64, true)
	rep2, err := p2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(rep2.Unresolved) != 0 {
		t.Fatalf("still unresolved after retry: %v", rep2.Unresolved)
	}
	if rep2.Excluded[key] != "" {
		t.Errorf("%s still excluded as %q", key, rep2.Excluded[key])
	}
	got, ok := rep2.Characterized[key]
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("%s re-characterized as %v, want %v", key, got, want)
	}
	if u, ok := rep2.Final.Get(key); !ok || !reflect.DeepEqual(u, want) {
		t.Errorf("%s in final mapping: %v (%v), want %v", key, u, ok, want)
	}
	// The retry must only re-measure the one scheme's grid, not rerun
	// the pipeline.
	if calls := proc.calls.Load(); calls*2 >= fullCalls {
		t.Errorf("retry made %d processor calls, full run %d — looks like a rerun", calls, fullCalls)
	}
}
