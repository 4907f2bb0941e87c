package smt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"zenport/internal/portmodel"
	"zenport/internal/sat"
)

// pairInstance has two 1-port instructions on two ports: the setting
// where "shared port" and "distinct ports" are both a priori possible,
// so experiments can contradict each other without being individually
// absurd.
func pairInstance() *Instance {
	return &Instance{
		NumPorts: 2,
		Epsilon:  0.02,
		Uops: []UopSpec{
			{Key: "iA", NumPorts: 1},
			{Key: "iB", NumPorts: 1},
		},
	}
}

func TestUnsatCore(t *testing.T) {
	// The joint experiment {iA, iB} = 2.0 forces iA and iB onto the
	// same port; {2×iA, 2×iB} = 2.0 forces distinct ports.
	sharedPort := MeasuredExp{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2.0}
	distinctPorts := MeasuredExp{Exp: portmodel.Experiment{"iA": 2, "iB": 2}, TInv: 2.0}

	cases := []struct {
		name string
		in   func() *Instance
		exps []MeasuredExp
		want []int // nil = expect feasible (no core)
	}{
		{
			name: "feasible set has no core",
			in:   pairInstance,
			exps: []MeasuredExp{
				{Exp: portmodel.Exp("iA"), TInv: 1.0},
				{Exp: portmodel.Exp("iB"), TInv: 1.0},
			},
			want: nil,
		},
		{
			name: "single self-contradictory experiment",
			in: func() *Instance {
				return &Instance{NumPorts: 2, Epsilon: 0.02, Uops: []UopSpec{{Key: "iA", NumPorts: 1}}}
			},
			// A 1-port µop can only give 2.0 for two copies; the
			// consistent singleton must not enter the core.
			exps: []MeasuredExp{
				{Exp: portmodel.Exp("iA"), TInv: 1.0},
				{Exp: portmodel.Experiment{"iA": 2}, TInv: 3.0},
			},
			want: []int{1},
		},
		{
			name: "jointly conflicting pair",
			in:   pairInstance,
			exps: []MeasuredExp{sharedPort, distinctPorts},
			want: []int{0, 1},
		},
		{
			name: "innocent bystanders excluded",
			in: func() *Instance {
				in := pairInstance()
				in.Uops = append(in.Uops, UopSpec{Key: "iC", NumPorts: 1})
				in.NumPorts = 3
				return in
			},
			exps: []MeasuredExp{
				{Exp: portmodel.Exp("iC"), TInv: 1.0},
				sharedPort,
				{Exp: portmodel.Exp("iA"), TInv: 1.0},
				distinctPorts,
			},
			want: []int{1, 3},
		},
		{
			name: "imul anomaly core is the mixed experiment alone",
			in: func() *Instance {
				return &Instance{
					NumPorts: 10, Rmax: 5, Epsilon: 0.02,
					Uops: []UopSpec{
						{Key: "add", NumPorts: 4},
						{Key: "imul", NumPorts: 1},
					},
				}
			},
			// The §4.3 anomaly: 4×add+imul measures 1.5, but the
			// model's optimal schedule gives 1.0 (imul's port outside
			// add's four) or 1.25 (inside) for any port assignment —
			// the mixture conflicts on its own, and minimization must
			// strip the two innocent singleton anchors.
			exps: []MeasuredExp{
				{Exp: portmodel.Exp("add"), TInv: 0.25},
				{Exp: portmodel.Exp("imul"), TInv: 1.0},
				{Exp: portmodel.Experiment{"add": 4, "imul": 1}, TInv: 1.5},
			},
			want: []int{2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in()
			core, err := in.UnsatCore(context.Background(), tc.exps, nil)
			if err != nil {
				t.Fatalf("UnsatCore: %v", err)
			}
			if tc.want == nil {
				if core != nil {
					t.Fatalf("feasible set produced core %v", core.Indices)
				}
				return
			}
			if core == nil {
				t.Fatal("expected a core, got feasible")
			}
			if !core.Minimal {
				t.Fatalf("core %v not minimal under unlimited budget", core.Indices)
			}
			if !reflect.DeepEqual(core.Indices, tc.want) {
				t.Fatalf("core = %v, want %v", core.Indices, tc.want)
			}
			// A minimal core must be 1-minimal: verify independently.
			sub := make([]MeasuredExp, 0, len(core.Indices))
			for _, i := range core.Indices {
				sub = append(sub, tc.exps[i])
			}
			if _, err := tc.in().FindMapping(sub); err != ErrNoMapping {
				t.Fatalf("claimed core is not conflicting: %v", err)
			}
			for drop := range sub {
				rest := make([]MeasuredExp, 0, len(sub)-1)
				rest = append(rest, sub[:drop]...)
				rest = append(rest, sub[drop+1:]...)
				if _, err := tc.in().FindMapping(rest); err != nil {
					t.Fatalf("core minus element %d still conflicting: %v", drop, err)
				}
			}
		})
	}
}

func TestUnsatCoreStructural(t *testing.T) {
	// A µop demanding two ports on a one-port machine is infeasible
	// before any experiment enters: the encoding itself fails, and
	// UnsatCore must propagate that error instead of blaming the
	// experiment set.
	in := &Instance{NumPorts: 1, Epsilon: 0.02, Uops: []UopSpec{{Key: "iA", NumPorts: 2}}}
	exps := []MeasuredExp{{Exp: portmodel.Exp("iA"), TInv: 1.0}}
	core, err := in.UnsatCore(context.Background(), exps, nil)
	if err == nil {
		t.Fatalf("expected encode error, got core %+v", core)
	}
	if errors.Is(err, ErrNoMapping) {
		t.Fatalf("structural failure misreported as %v", err)
	}
}

func TestUnsatCoreDeterministic(t *testing.T) {
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("iA"), TInv: 1.0},
		{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2.0},
		{Exp: portmodel.Exp("iB"), TInv: 1.0},
		{Exp: portmodel.Experiment{"iA": 2, "iB": 2}, TInv: 2.0},
	}
	var first []int
	for run := 0; run < 3; run++ {
		core, err := pairInstance().UnsatCore(context.Background(), exps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if core == nil {
			t.Fatal("expected a core")
		}
		if run == 0 {
			first = core.Indices
			continue
		}
		if !reflect.DeepEqual(core.Indices, first) {
			t.Fatalf("run %d core %v != first %v", run, core.Indices, first)
		}
	}
}

func TestUnsatCoreBudgetExhaustion(t *testing.T) {
	// With a one-propagation budget the first SAT search consumes it
	// and a later search is refused at entry; UnsatCore must surface
	// the budget error rather than fabricate a verdict.
	exps := []MeasuredExp{
		{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2.0},
		{Exp: portmodel.Experiment{"iA": 2, "iB": 2}, TInv: 2.0},
	}
	b := &sat.Budget{MaxPropagations: 1}
	_, err := pairInstance().UnsatCore(context.Background(), exps, b)
	if !errors.Is(err, sat.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}
