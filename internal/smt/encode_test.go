package smt

import (
	"reflect"
	"testing"

	"zenport/internal/portmodel"
)

// tiedInstance has a tied µop and enough ports that its first
// FindMapping learns lemmas from several experiments.
func tiedInstance() (*Instance, []MeasuredExp, *portmodel.Mapping) {
	in := &Instance{
		NumPorts: 4, Epsilon: 0.02,
		Uops: []UopSpec{
			{Key: "alu", NumPorts: 2},
			{Key: "load", NumPorts: 1},
			{Key: "vec", NumPorts: 1},
			{Key: "store", NumPorts: 1},
			{Key: "store", TiedToBlocker: true},
		},
	}
	truth := portmodel.NewMapping(4)
	truth.Set("alu", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 1), Count: 1}})
	truth.Set("load", portmodel.Usage{{Ports: portmodel.MakePortSet(2), Count: 1}})
	truth.Set("vec", portmodel.Usage{{Ports: portmodel.MakePortSet(1), Count: 1}})
	truth.Set("store", portmodel.Usage{
		{Ports: portmodel.MakePortSet(3), Count: 1},
		{Ports: portmodel.MakePortSet(2), Count: 1},
	})
	var exps []MeasuredExp
	for _, e := range []portmodel.Experiment{
		portmodel.Exp("alu"), portmodel.Exp("load"), portmodel.Exp("vec"), portmodel.Exp("store"),
		{"alu": 2, "vec": 2}, {"load": 1, "store": 1}, {"vec": 1, "load": 1}, {"alu": 1, "store": 2},
	} {
		tinv, err := truth.InverseThroughput(e)
		if err != nil {
			panic(err)
		}
		exps = append(exps, MeasuredExp{Exp: e, TInv: tinv})
	}
	return in, exps, truth
}

// TestEncodeCacheMatchesFresh: the clone encode hands a query must be
// the encoding a fresh build of the instance gives — the same solver
// state, so the same search — after every change the pristine cache
// has to follow: learned lemmas, a FindOtherMapping rollback, dropping
// an early lemma, an edit of Uops, and Reset.
func TestEncodeCacheMatchesFresh(t *testing.T) {
	in, exps, truth := tiedInstance()
	in.Telemetry = &QueryStats{}
	check := func(step string) {
		t.Helper()
		got, err := in.encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", step, err)
		}
		want, err := in.encodeWith()
		if err != nil {
			t.Fatalf("%s: encodeWith: %v", step, err)
		}
		if err := assertLemmas(want, in.lemmas); err != nil {
			t.Fatalf("%s: assertLemmas: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached encoding differs from a fresh one", step)
		}
		// A query's clone must not write through to the cache.
		got.s.Solve()
		if again, _ := in.encode(); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: solving a clone changed the cached encoding", step)
		}
	}
	check("empty")

	m1, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]bool{}
	for _, lem := range in.lemmas {
		srcs[lem.src.String()] = true
	}
	if len(srcs) < 2 {
		t.Fatalf("learned %d lemmas from %d experiments; want at least two experiments", len(in.lemmas), len(srcs))
	}
	check("learned lemmas")

	// Run CEGAR against the truth until the uniqueness proof fails to
	// find another mapping and rolls back the lemmas it learned.
	for round := 0; ; round++ {
		if round == 20 {
			t.Fatal("CEGAR did not converge")
		}
		mark, learned := len(in.lemmas), in.Telemetry.LemmasLearned
		other, err := in.FindOtherMapping(exps, m1, 2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		if other == nil {
			if in.Telemetry.LemmasLearned == learned || len(in.lemmas) != mark {
				t.Fatalf("want a rolled-back uniqueness proof; lemmas %d -> %d", mark, len(in.lemmas))
			}
			break
		}
		tm, err := truth.InverseThroughput(other.Exp)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, MeasuredExp{Exp: other.Exp, TInv: tm})
		if m1, err = in.FindMapping(exps); err != nil {
			t.Fatal(err)
		}
	}
	check("FindOtherMapping rollback")

	if in.pristineLemmas != len(in.lemmas) {
		t.Fatalf("cache holds %d of %d lemmas before the drop", in.pristineLemmas, len(in.lemmas))
	}
	if n := in.DropLemmasFrom(in.lemmas[0].src); n == 0 {
		t.Fatal("dropped no lemma")
	}
	check("DropLemmasFrom of the first lemma")

	in.Uops[2].NumPorts = 2
	check("edit of Uops in place")
	in.Uops = append(in.Uops, UopSpec{Key: "extra", NumPorts: 1})
	check("appended µop")
	in.NumPorts = 5
	check("NumPorts")

	in.Reset()
	check("Reset")
}
