package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/smt"
)

// fanOutQuery is the i-th query of the fan-out tests: two one-port
// instructions whose pair measurement is consistent (SAT) for even i
// and contradicts the flooded pair (UNSAT) for odd i.
func fanOutQuery(i int) (*smt.Instance, []smt.MeasuredExp) {
	in := &smt.Instance{NumPorts: 2, Epsilon: 0.02, Uops: []smt.UopSpec{
		{Key: "iA", NumPorts: 1},
		{Key: "iB", NumPorts: 1},
	}}
	flooded := 4.0
	if i%2 == 1 {
		flooded = 2.0
	}
	return in, []smt.MeasuredExp{
		{Exp: portmodel.Exp("iA"), TInv: 1},
		{Exp: portmodel.Exp("iB"), TInv: 1},
		{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2},
		{Exp: portmodel.Experiment{"iA": 2, "iB": 2}, TInv: flooded},
	}
}

// checkNoGoroutineLeft fails the test unless the goroutine count falls
// back to base within a second.
func checkNoGoroutineLeft(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnsatQueriesMatchSequential: at every worker count the fan-out
// gives the verdicts and the telemetry sum of running the queries one
// after another.
func TestUnsatQueriesMatchSequential(t *testing.T) {
	const n = 12
	var want smt.QueryStats
	wantUnsat := make([]bool, n)
	for i := range n {
		in, exps := fanOutQuery(i)
		in.Telemetry = &want
		_, err := in.FindMappingBudget(context.Background(), exps, nil)
		if err != nil && !errors.Is(err, smt.ErrNoMapping) {
			t.Fatal(err)
		}
		wantUnsat[i] = err != nil
	}
	if !slices.Contains(wantUnsat, true) || !slices.Contains(wantUnsat, false) {
		t.Fatalf("verdicts %v: want both SAT and UNSAT queries", wantUnsat)
	}
	for _, workers := range []int{1, 0, 3, 16} {
		p := &Pipeline{H: &engine.Engine{Workers: workers}}
		var got smt.QueryStats
		unsat, err := p.unsatQueries(context.Background(), &got, n, fanOutQuery)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.Equal(unsat, wantUnsat) {
			t.Errorf("workers=%d: verdicts %v, want %v", workers, unsat, wantUnsat)
		}
		if got != want {
			t.Errorf("workers=%d: telemetry %+v, want %+v", workers, got, want)
		}
	}
}

// TestUnsatQueriesCancelled: a context cancelled while the queries run
// ends the fan-out with an error wrapping context.Canceled, and no
// worker outlives the call.
func TestUnsatQueriesCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &Pipeline{H: &engine.Engine{Workers: 3}}
	_, err := p.unsatQueries(ctx, nil, 40, func(i int) (*smt.Instance, []smt.MeasuredExp) {
		if i == 5 {
			cancel()
		}
		return fanOutQuery(i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoGoroutineLeft(t, base)
}

// TestUnsatQueriesLowestIndexError: when two queries fail, the error
// of the lower index is reported, even when the higher one fails
// first.
func TestUnsatQueriesLowestIndexError(t *testing.T) {
	base := runtime.NumGoroutine()
	p := &Pipeline{H: &engine.Engine{Workers: 2}}
	_, err := p.unsatQueries(context.Background(), nil, 10, func(i int) (*smt.Instance, []smt.MeasuredExp) {
		in, exps := fanOutQuery(i)
		switch i {
		case 2:
			// Fail late, after query 6 has failed on the other worker.
			time.Sleep(50 * time.Millisecond)
			exps = append(exps, smt.MeasuredExp{Exp: portmodel.Exp("unknown2"), TInv: 1})
		case 6:
			exps = append(exps, smt.MeasuredExp{Exp: portmodel.Exp("unknown6"), TInv: 1})
		}
		return in, exps
	})
	if err == nil || !strings.Contains(err.Error(), "unknown2") {
		t.Fatalf("err = %v, want the error of query 2", err)
	}
	checkNoGoroutineLeft(t, base)
}
