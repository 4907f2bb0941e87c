package smt

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
)

// liedExps is a jointly conflicting set: the pair measurement is
// honest (iA and iB share a port), the flooded measurement lies
// (claims distinct ports).
func liedExps() []MeasuredExp {
	return []MeasuredExp{
		{Exp: portmodel.Exp("iA"), TInv: 1.0},
		{Exp: portmodel.Exp("iB"), TInv: 1.0},
		{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2.0},
		{Exp: portmodel.Experiment{"iA": 2, "iB": 2}, TInv: 2.0}, // truth: 4.0
	}
}

func TestSupervisedRecoveryBySlack(t *testing.T) {
	// Relaxing the lying experiment's tolerance must make the set
	// feasible: |4.0 − 2.0| = 2 ≤ (0.02+slack)·4 needs slack ≥ 0.48,
	// i.e. two 0.25 steps.
	in := pairInstance()
	exps := liedExps()
	quality := func(e portmodel.Experiment) float64 {
		// Flag the flooded experiment as the least trustworthy.
		return float64(e.Len())
	}
	m, out, rep, err := in.FindMappingSupervised(context.Background(), exps, SuperviseOptions{
		MaxSlack:  1.0,
		QualityOf: quality,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised: %v (report %+v)", err, rep)
	}
	if m == nil {
		t.Fatal("no mapping")
	}
	if len(rep.Cores) == 0 {
		t.Fatal("no core recorded")
	}
	if len(rep.Relaxations) != 2 {
		t.Fatalf("relaxations = %+v, want two steps on the flooded experiment", rep.Relaxations)
	}
	wantKey := engine.CanonicalKey(exps[3].Exp)
	for _, rx := range rep.Relaxations {
		if rx.Key != wantKey {
			t.Fatalf("relaxed %s, want %s", rx.Key, wantKey)
		}
	}
	if out[3].Slack != 0.5 {
		t.Fatalf("final slack %v, want 0.5", out[3].Slack)
	}
	if rep.Unrecoverable || rep.BudgetExhausted {
		t.Fatalf("unexpected failure flags in %+v", rep)
	}
	// The mapping must satisfy the honest experiments exactly: shared
	// port for iA and iB.
	uA, _ := m.Get("iA")
	uB, _ := m.Get("iB")
	if uA[0].Ports != uB[0].Ports {
		t.Fatalf("recovered mapping separated iA (%v) and iB (%v)", uA, uB)
	}
}

func TestSupervisedRecoveryByRemeasure(t *testing.T) {
	// When re-measurement returns the honest value, one relaxation
	// round heals the set without the slack doing any work.
	in := pairInstance()
	exps := liedExps()
	remeasured := 0
	m, out, rep, err := in.FindMappingSupervised(context.Background(), exps, SuperviseOptions{
		MaxSlack:  1.0,
		QualityOf: func(e portmodel.Experiment) float64 { return float64(e.Len()) },
		Remeasure: func(ctx context.Context, e portmodel.Experiment) (float64, error) {
			remeasured++
			return 4.0, nil // the honest throughput
		},
	})
	if err != nil {
		t.Fatalf("supervised: %v (report %+v)", err, rep)
	}
	if m == nil || remeasured != 1 || len(rep.Relaxations) != 1 {
		t.Fatalf("m=%v remeasured=%d relaxations=%+v", m, remeasured, rep.Relaxations)
	}
	rx := rep.Relaxations[0]
	if rx.OldTInv != 2.0 || rx.NewTInv != 4.0 {
		t.Fatalf("relaxation throughputs %+v, want 2.0 -> 4.0", rx)
	}
	if out[3].TInv != 4.0 {
		t.Fatalf("experiment not updated: %+v", out[3])
	}
}

func TestSupervisedUnrecoverable(t *testing.T) {
	// MaxSlack too small for the conflict: recovery must exhaust its
	// options and report Unrecoverable instead of looping.
	in := pairInstance()
	_, _, rep, err := in.FindMappingSupervised(context.Background(), liedExps(), SuperviseOptions{
		MaxSlack: 0.1, // conflict needs ≥ 0.48 somewhere
	})
	if !errors.Is(err, ErrNoMapping) {
		t.Fatalf("err = %v, want ErrNoMapping", err)
	}
	if !rep.Unrecoverable {
		t.Fatalf("report %+v lacks Unrecoverable", rep)
	}
	if len(rep.Cores) == 0 {
		t.Fatal("no core recorded on the way down")
	}
}

func TestSupervisedZeroSlackMatchesPlainFind(t *testing.T) {
	// MaxSlack 0 must behave exactly like FindMapping: ErrNoMapping,
	// no cores extracted, so the §4.3 anomaly-isolation path upstream
	// is unaffected.
	in := pairInstance()
	_, _, rep, err := in.FindMappingSupervised(context.Background(), liedExps(), SuperviseOptions{})
	if !errors.Is(err, ErrNoMapping) {
		t.Fatalf("err = %v, want ErrNoMapping", err)
	}
	if len(rep.Cores) != 0 || len(rep.Relaxations) != 0 || !rep.Unrecoverable {
		t.Fatalf("zero-slack report %+v should only mark Unrecoverable", rep)
	}
}

func TestSupervisedBudgetExhaustion(t *testing.T) {
	in := pairInstance()
	b := &sat.Budget{MaxPropagations: 1}
	_, _, rep, err := in.FindMappingSupervised(context.Background(), liedExps(), SuperviseOptions{
		MaxSlack: 1.0,
		Budget:   b,
	})
	if !errors.Is(err, sat.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if !rep.BudgetExhausted {
		t.Fatalf("report %+v lacks BudgetExhausted", rep)
	}
}

func TestSupervisedFeasibleSetUntouched(t *testing.T) {
	in := toyInstance()
	exps := toyExps()
	m, out, rep, err := in.FindMappingSupervised(context.Background(), exps, SuperviseOptions{MaxSlack: 1.0})
	if err != nil || m == nil {
		t.Fatalf("m=%v err=%v", m, err)
	}
	if len(rep.Cores) != 0 || len(rep.Relaxations) != 0 {
		t.Fatalf("feasible set triggered recovery: %+v", rep)
	}
	for i := range out {
		if out[i].Slack != 0 {
			t.Fatalf("experiment %d gained slack %v", i, out[i].Slack)
		}
	}
}

func TestTelemetryAccumulates(t *testing.T) {
	in := toyInstance()
	in.Telemetry = &QueryStats{}
	if _, err := in.FindMapping(toyExps()); err != nil {
		t.Fatal(err)
	}
	q1 := *in.Telemetry
	if q1.Queries != 1 {
		t.Fatalf("queries = %d, want 1", q1.Queries)
	}
	if q1.Solver.Propagations == 0 || q1.Solver.Decisions == 0 {
		t.Fatalf("solver counters empty: %+v", q1.Solver)
	}
	if q1.TheoryIterations == 0 {
		t.Fatal("no theory iterations counted")
	}
	// A second query adds on top, and clones share the accumulator.
	if _, err := in.Clone().FindMapping(toyExps()); err != nil {
		t.Fatal(err)
	}
	q2 := *in.Telemetry
	if q2.Queries != 2 || q2.Solver.Propagations <= q1.Solver.Propagations {
		t.Fatalf("clone did not accumulate: %+v then %+v", q1, q2)
	}
}

func TestTelemetryCountsBudgetStops(t *testing.T) {
	in := pairInstance()
	in.Telemetry = &QueryStats{}
	b := &sat.Budget{MaxPropagations: 1}
	// First query eats the budget; a follow-up query is refused at
	// entry and must be counted as budget-stopped.
	_, _ = in.FindMappingBudget(context.Background(), liedExps(), b)
	_, err := in.FindMappingBudget(context.Background(), liedExps(), b)
	if !errors.Is(err, sat.ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if in.Telemetry.BudgetExhausted == 0 {
		t.Fatalf("telemetry %+v did not count the budget stop", in.Telemetry)
	}
}

func TestQueryStatsJSON(t *testing.T) {
	a := QueryStats{Queries: 11, TheoryIterations: 2, LemmasLearned: 3, BudgetExhausted: 1, Solver: sat.Stats{Conflicts: 44, Propagations: 7}}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("round trip %+v != %+v", back, a)
	}
}

func TestSlackenedLemmaRoundTrip(t *testing.T) {
	// Learn lemmas under a relaxed experiment and carry them into a
	// sub-instance that removes nothing, as §4.3 isolation does: it
	// must hold the same lemmas and answer queries identically.
	in := pairInstance()
	exps := liedExps()
	exps[3].Slack = 0.5
	m1, err := in.FindMapping(exps)
	if err != nil {
		t.Fatalf("relaxed set should be feasible: %v", err)
	}
	if len(in.lemmas) == 0 {
		t.Skip("query solved without lemmas; nothing to round-trip")
	}
	in2 := in.Without(nil)
	if !reflect.DeepEqual(in2.lemmas, in.lemmas) {
		t.Fatalf("carried lemmas differ:\n%+v\nvs\n%+v", in2.lemmas, in.lemmas)
	}
	m2, err := in2.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Isomorphic(m2) {
		t.Fatalf("restored instance found a different mapping:\n%v\nvs\n%v", m1, m2)
	}
}

func TestDropLemmasFrom(t *testing.T) {
	in := pairInstance()
	exps := liedExps()
	exps[3].Slack = 0.5
	if _, err := in.FindMapping(exps); err != nil {
		t.Fatal(err)
	}
	total := len(in.lemmas)
	if total == 0 {
		t.Skip("no lemmas learned")
	}
	// Dropping an uninvolved experiment's lemmas removes nothing.
	if n := in.DropLemmasFrom(portmodel.Exp("iZ")); n != 0 {
		t.Fatalf("dropped %d lemmas of an unknown experiment", n)
	}
	dropped := 0
	for _, me := range exps {
		dropped += in.DropLemmasFrom(me.Exp)
	}
	if dropped != total || len(in.lemmas) != 0 {
		t.Fatalf("dropped %d of %d, %d remain", dropped, total, len(in.lemmas))
	}
}
