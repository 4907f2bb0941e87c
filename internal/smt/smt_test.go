package smt

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"zenport/internal/portmodel"
)

// toyInstance is the Figure 4 setting: two single-µop instructions
// iA, iB over two ports, each with a 1-port µop (tp⁻¹ = 1.0 each).
func toyInstance() *Instance {
	return &Instance{
		NumPorts: 2,
		Rmax:     0,
		Epsilon:  0.02,
		Uops: []UopSpec{
			{Key: "iA", NumPorts: 1},
			{Key: "iB", NumPorts: 1},
		},
	}
}

func toyExps() []MeasuredExp {
	return []MeasuredExp{
		{Exp: portmodel.Exp("iA"), TInv: 1.0},
		{Exp: portmodel.Exp("iB"), TInv: 1.0},
	}
}

func TestFindMappingToy(t *testing.T) {
	in := toyInstance()
	m, err := in.FindMapping(toyExps())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"iA", "iB"} {
		u, ok := m.Get(key)
		if !ok || u.TotalUops() != 1 || u[0].Ports.Size() != 1 {
			t.Fatalf("%s: usage %v", key, u)
		}
	}
	// The found mapping must reproduce the measurements.
	for _, me := range toyExps() {
		got, err := m.InverseThroughput(me.Exp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-me.TInv) > 0.03 {
			t.Fatalf("found mapping gives %v for %v", got, me.Exp)
		}
	}
}

func TestFindOtherMappingToyFigure4(t *testing.T) {
	// With only singleton measurements, same-port and distinct-port
	// mappings are both consistent; findOtherMapping must produce a
	// distinguishing experiment — the paper gives [iA, iB] with
	// throughputs 1.0 vs 2.0.
	in := toyInstance()
	exps := toyExps()
	m1, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	other, err := in.FindOtherMapping(exps, m1, 2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if other == nil {
		t.Fatal("expected a distinguishable second mapping")
	}
	if other.Exp.Len() != 2 || other.Exp["iA"] != 1 || other.Exp["iB"] != 1 {
		t.Fatalf("distinguishing experiment %v, want [iA, iB]", other.Exp)
	}
	lo, hi := other.T1, other.T2
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo-1.0) > 1e-9 || math.Abs(hi-2.0) > 1e-9 {
		t.Fatalf("throughputs %v/%v, want 1.0/2.0", other.T1, other.T2)
	}
}

func TestCEGARToyConvergesToTruth(t *testing.T) {
	// Full Algorithm 2 against a ground truth where iA and iB share
	// port 0: the loop must converge to a mapping isomorphic to it.
	truth := portmodel.NewMapping(2)
	truth.Set("iA", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	truth.Set("iB", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})

	in := toyInstance()
	exps := toyExps()
	for iter := 0; iter < 20; iter++ {
		m1, err := in.FindMapping(exps)
		if err != nil {
			t.Fatal(err)
		}
		other, err := in.FindOtherMapping(exps, m1, 2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		if other == nil {
			if !m1.Isomorphic(truth) {
				t.Fatalf("converged to wrong mapping:\n%v", m1)
			}
			return
		}
		// "Measure" the new experiment on the ground truth.
		tm, err := truth.InverseThroughput(other.Exp)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, MeasuredExp{Exp: other.Exp, TInv: tm})
	}
	t.Fatal("CEGAR did not converge")
}

func TestCEGARToyDistinctPorts(t *testing.T) {
	// Same, but the truth has iA and iB on different ports.
	truth := portmodel.NewMapping(2)
	truth.Set("iA", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	truth.Set("iB", portmodel.Usage{{Ports: portmodel.MakePortSet(1), Count: 1}})

	in := toyInstance()
	exps := toyExps()
	for iter := 0; iter < 20; iter++ {
		m1, err := in.FindMapping(exps)
		if err != nil {
			t.Fatal(err)
		}
		other, err := in.FindOtherMapping(exps, m1, 2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		if other == nil {
			if !m1.Isomorphic(truth) {
				t.Fatalf("converged to wrong mapping:\n%v", m1)
			}
			return
		}
		tm, err := truth.InverseThroughput(other.Exp)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, MeasuredExp{Exp: other.Exp, TInv: tm})
	}
	t.Fatal("CEGAR did not converge")
}

func TestFindMappingUnsatOnContradiction(t *testing.T) {
	// A single 1-port instruction cannot have tp⁻¹ 1.0 alone but 3.0
	// in a pair of two copies... Model: [2×iA] must be 2.0; claim 3.0.
	in := &Instance{NumPorts: 2, Epsilon: 0.02, Uops: []UopSpec{{Key: "iA", NumPorts: 1}}}
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("iA"), TInv: 1.0},
		{Exp: portmodel.Experiment{"iA": 2}, TInv: 3.0},
	}
	if _, err := in.FindMapping(exps); err != ErrNoMapping {
		t.Fatalf("expected ErrNoMapping, got %v", err)
	}
}

func TestFindMappingImulAnomalyUnsat(t *testing.T) {
	// The §4.3 imul case: add has 4 ports, imul 1; the measured
	// mixture 4×add+imul = 1.5 cycles fits no mapping (1.25 or 1.0
	// are the only model values).
	in := &Instance{
		NumPorts: 10, Rmax: 5, Epsilon: 0.02,
		Uops: []UopSpec{
			{Key: "add", NumPorts: 4},
			{Key: "imul", NumPorts: 1},
		},
	}
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("add"), TInv: 0.25},
		{Exp: portmodel.Exp("imul"), TInv: 1.0},
		{Exp: portmodel.Experiment{"add": 4, "imul": 1}, TInv: 1.5},
	}
	if _, err := in.FindMapping(exps); err != ErrNoMapping {
		t.Fatalf("expected ErrNoMapping, got %v", err)
	}
}

func TestRmaxMakesMappingsIndistinguishable(t *testing.T) {
	// §4.3: with the 5-IPC bottleneck, whether a 4-port ALU class
	// shares a port with a 4-port FP class is not distinguishable.
	in := &Instance{
		NumPorts: 8, Rmax: 5, Epsilon: 0.02,
		Uops: []UopSpec{
			{Key: "add", NumPorts: 4},
			{Key: "vpor", NumPorts: 4},
		},
	}
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("add"), TInv: 0.25},
		{Exp: portmodel.Exp("vpor"), TInv: 0.25},
		// Disjoint in truth: 4+4 on 8 ports, frontend-bound.
		{Exp: portmodel.Experiment{"add": 4, "vpor": 4}, TInv: 1.6},
	}
	m1, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	// Without Rmax, overlapping and disjoint variants would be
	// distinguishable by flooding; with Rmax = 5 any distinguishing
	// experiment's model difference is masked below the bottleneck
	// for small sizes. We only require that the search terminates
	// and that, if a distinguishing experiment is claimed, it indeed
	// differs by more than 2ε|e| under the bounded model.
	other, err := in.FindOtherMapping(exps, m1, 2, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if other != nil {
		d := math.Abs(other.T1 - other.T2)
		if d <= 2*in.Epsilon*float64(other.Exp.Len()) {
			t.Fatalf("claimed distinguishing experiment %v differs by only %v", other.Exp, d)
		}
	}
}

func TestTiedUopConstraint(t *testing.T) {
	// An improper blocker (like the storing mov, §4.3) has two µops:
	// one free, one tied to a proper blocker's port set.
	in := &Instance{
		NumPorts: 4, Rmax: 0, Epsilon: 0.02,
		Uops: []UopSpec{
			{Key: "alu", NumPorts: 2},
			{Key: "load", NumPorts: 1},
			{Key: "store", NumPorts: 1},
			{Key: "store", TiedToBlocker: true},
		},
	}
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("alu"), TInv: 0.5},
		{Exp: portmodel.Exp("load"), TInv: 1.0},
		{Exp: portmodel.Exp("store"), TInv: 1.0},
	}
	m, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := m.Get("store")
	if st.TotalUops() != 2 {
		t.Fatalf("store usage %v, want 2 µops", st)
	}
	// One of the store µops must equal the alu or load µop's ports.
	aluU, _ := m.Get("alu")
	loadU, _ := m.Get("load")
	tiedOK := false
	for _, x := range st {
		if x.Ports == aluU[0].Ports || x.Ports == loadU[0].Ports {
			tiedOK = true
		}
	}
	if !tiedOK {
		t.Fatalf("no store µop tied to a proper blocker: store=%v alu=%v load=%v", st, aluU, loadU)
	}
}

func TestInstanceHelpers(t *testing.T) {
	in := toyInstance()
	if got := in.SortedKeys(); len(got) != 2 || got[0] != "iA" || got[1] != "iB" {
		t.Fatalf("SortedKeys = %v", got)
	}
	cl := in.Clone()
	if len(cl.Uops) != 2 || len(cl.lemmas) != 0 {
		t.Fatal("Clone broken")
	}
	w := in.Without(map[string]bool{"iA": true})
	if len(w.Uops) != 1 || w.Uops[0].Key != "iB" {
		t.Fatalf("Without = %+v", w.Uops)
	}
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("iA"), TInv: 1},
		{Exp: portmodel.Exp("iB"), TInv: 1},
		{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 1},
	}
	f := FilterExps(exps, map[string]bool{"iA": true})
	if len(f) != 1 || f[0].Exp["iB"] != 1 {
		t.Fatalf("FilterExps = %v", f)
	}
	in.lemmas = append(in.lemmas, lemma{lits: []lemmaLit{{0, 0, false}}, src: portmodel.Exp("iA")})
	in.Reset()
	if len(in.lemmas) != 0 {
		t.Fatal("Reset broken")
	}
}

func TestFindMappingWithFrontendBoundMeasurements(t *testing.T) {
	// Measurements at the frontend bound must be explainable: 10
	// no-dependence 4-port instructions at Rmax=5 measure 2.0 even
	// though the port model alone would say 2.5.
	in := &Instance{
		NumPorts: 8, Rmax: 5, Epsilon: 0.02,
		Uops: []UopSpec{{Key: "a", NumPorts: 4}, {Key: "b", NumPorts: 4}},
	}
	exps := []MeasuredExp{
		{Exp: portmodel.Exp("a"), TInv: 0.25},
		{Exp: portmodel.Exp("b"), TInv: 0.25},
		{Exp: portmodel.Experiment{"a": 4, "b": 4}, TInv: 1.6}, // frontend
	}
	m, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	// The two classes must be disjoint: overlapping 4-port sets
	// would give port time 8/|union| > 1.6 when union < 5... any
	// overlap (union ≤ 7) gives mass 8 spread over union ports; with
	// union=7 tp = 8/7 ≈ 1.14 < 1.6, so overlap is fine too — the
	// Rmax bound masks it. Just verify consistency.
	tm, err := m.InverseThroughputBounded(portmodel.Experiment{"a": 4, "b": 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm-1.6) > 0.02*8 {
		t.Fatalf("model value %v inconsistent with 1.6", tm)
	}
}

// TestDistinguishMatchesBruteForce pins distinguish against an
// independent stratified scan: every experiment of each total size
// with at most maxDistinct distinct keys, ordered lexicographically by
// its (key index, count) pairs, evaluated with the reference
// Mapping.InverseThroughputBounded. The first hit and both values must
// agree bit for bit, and identical mappings must not be distinguished.
func TestDistinguishMatchesBruteForce(t *testing.T) {
	type trial struct {
		in                    *Instance
		m1, m2                *portmodel.Mapping
		maxDistinct, maxTotal int
	}
	toy := toyInstance()
	m1 := portmodel.NewMapping(2)
	m1.Set("iA", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	m1.Set("iB", portmodel.Usage{{Ports: portmodel.MakePortSet(1), Count: 1}})
	m2 := portmodel.NewMapping(2)
	m2.Set("iA", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	m2.Set("iB", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	trials := []trial{{toy, m1, m2, 2, 4}}

	rng := rand.New(rand.NewSource(17))
	randomMapping := func(keys []string, ports int) *portmodel.Mapping {
		m := portmodel.NewMapping(ports)
		for _, k := range keys {
			var u portmodel.Usage
			for j := 1 + rng.Intn(2); j > 0; j-- {
				u = append(u, portmodel.Uop{Ports: portmodel.PortSet(1 + rng.Intn(1<<uint(ports)-1)), Count: 1 + rng.Intn(2)})
			}
			m.Set(k, u)
		}
		return m
	}
	for i := 0; i < 400; i++ {
		ports := 2 + rng.Intn(3)
		keys := []string{"k0", "k1", "k2", "k3"}[:1+rng.Intn(4)]
		in := &Instance{NumPorts: ports, Epsilon: []float64{0.02, 0.1, 0.25}[rng.Intn(3)]}
		if rng.Intn(2) == 0 {
			in.Rmax = float64(2 + rng.Intn(4))
		}
		for _, k := range keys {
			in.Uops = append(in.Uops, UopSpec{Key: k})
		}
		a, b := randomMapping(keys, ports), randomMapping(keys, ports)
		if i%2 == 0 {
			// Rotate the ports of some keys only: every singleton
			// keeps its value, so hits need mixed experiments.
			b = a.Clone()
			for _, k := range keys {
				if rng.Intn(2) == 0 {
					var u portmodel.Usage
					for _, x := range a.Usage[k] {
						rot := (x.Ports<<1 | x.Ports>>uint(ports-1)) & (1<<uint(ports) - 1)
						u = append(u, portmodel.Uop{Ports: rot, Count: x.Count})
					}
					b.Set(k, u)
				}
			}
		}
		trials = append(trials, trial{in, a, b, 1 + rng.Intn(3), 1 + rng.Intn(5)})
	}

	hits := 0
	for i, tr := range trials {
		want, w1, w2 := bruteForceDistinguish(t, tr.in, tr.m1, tr.m2, tr.maxDistinct, tr.maxTotal)
		got, g1, g2, err := tr.in.distinguish(tr.m1, tr.m2, tr.maxDistinct, tr.maxTotal)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if (got == nil) != (want == nil) || (got != nil && (got.String() != want.String() || g1 != w1 || g2 != w2)) {
			t.Fatalf("trial %d: distinguish = %v (%v, %v), brute force = %v (%v, %v)", i, got, g1, g2, want, w1, w2)
		}
		if got != nil {
			hits++
		}
		if same, _, _, err := tr.in.distinguish(tr.m1, tr.m1, tr.maxDistinct, tr.maxTotal); err != nil || same != nil {
			t.Fatalf("trial %d: identical mappings distinguished by %v (err %v)", i, same, err)
		}
	}
	if hits == 0 || hits == len(trials) {
		t.Fatalf("%d of %d trials distinguished; the comparison needs both outcomes", hits, len(trials))
	}
}

// bruteForceDistinguish is the reference scan of
// TestDistinguishMatchesBruteForce.
func bruteForceDistinguish(t *testing.T, in *Instance, m1, m2 *portmodel.Mapping, maxDistinct, maxTotal int) (portmodel.Experiment, float64, float64) {
	t.Helper()
	keys := in.SortedKeys()
	for total := 1; total <= maxTotal; total++ {
		// Every count vector summing to total, by odometer.
		var vecs [][]int
		v := make([]int, len(keys))
		for {
			sum, distinct := 0, 0
			for _, c := range v {
				sum += c
				if c > 0 {
					distinct++
				}
			}
			if sum == total && distinct <= maxDistinct {
				vecs = append(vecs, slices.Clone(v))
			}
			j := 0
			for j < len(v) && v[j] == total {
				v[j] = 0
				j++
			}
			if j == len(v) {
				break
			}
			v[j]++
		}
		// Stratified order: compare the (key index, count) pairs of
		// the non-zero entries lexicographically.
		pairs := func(v []int) [][2]int {
			var out [][2]int
			for i, c := range v {
				if c > 0 {
					out = append(out, [2]int{i, c})
				}
			}
			return out
		}
		slices.SortFunc(vecs, func(a, b []int) int {
			pa, pb := pairs(a), pairs(b)
			for i := 0; i < len(pa) && i < len(pb); i++ {
				if pa[i][0] != pb[i][0] {
					return pa[i][0] - pb[i][0]
				}
				if pa[i][1] != pb[i][1] {
					return pa[i][1] - pb[i][1]
				}
			}
			return len(pa) - len(pb)
		})
		for _, v := range vecs {
			e := portmodel.Experiment{}
			for i, c := range v {
				if c > 0 {
					e[keys[i]] = c
				}
			}
			t1, err := m1.InverseThroughputBounded(e, in.Rmax)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := m2.InverseThroughputBounded(e, in.Rmax)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(t1-t2) > 2*in.Epsilon*float64(total) {
				return e, t1, t2
			}
		}
	}
	return nil, 0, 0
}

// TestFindOtherMappingNilRollsBack: the nil FindOtherMapping that ends
// a CEGAR loop (the uniqueness proof) must leave the lemma store as it
// found it, even though its enumeration learns lemmas on the way.
func TestFindOtherMappingNilRollsBack(t *testing.T) {
	// The distinct-ports truth: its uniqueness proof learns a lemma,
	// so the rollback has something to undo.
	truth := portmodel.NewMapping(2)
	truth.Set("iA", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	truth.Set("iB", portmodel.Usage{{Ports: portmodel.MakePortSet(1), Count: 1}})

	in := toyInstance()
	in.Telemetry = &QueryStats{}
	exps := toyExps()
	for iter := 0; iter < 20; iter++ {
		m1, err := in.FindMapping(exps)
		if err != nil {
			t.Fatal(err)
		}
		before, learned := len(in.lemmas), in.Telemetry.LemmasLearned
		other, err := in.FindOtherMapping(exps, m1, 2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		if other == nil {
			if in.Telemetry.LemmasLearned == learned {
				t.Fatal("the uniqueness proof learned no lemma; the rollback went unexercised")
			}
			if got := len(in.lemmas); got != before {
				t.Fatalf("nil FindOtherMapping changed the lemma store: %d -> %d", before, got)
			}
			return
		}
		tm, err := truth.InverseThroughput(other.Exp)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, MeasuredExp{Exp: other.Exp, TInv: tm})
	}
	t.Fatal("CEGAR did not converge")
}

// TestFindRejectsUninternableExperiments: an experiment the propagator
// cannot intern — a key outside the instance, a negative count — fails
// both find loops with the evaluator's error before any search, and
// leaves the lemma store as it found it.
func TestFindRejectsUninternableExperiments(t *testing.T) {
	in := toyInstance()
	// A shared-port measurement refutes the solver's first,
	// distinct-ports candidate, so the store holds lemmas the failing
	// queries must not touch.
	exps := append(toyExps(), MeasuredExp{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2.0})
	m1, err := in.FindMapping(exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.lemmas) == 0 {
		t.Fatal("setup learned no lemma; the store check would be vacuous")
	}
	before := slices.Clone(in.lemmas)
	for _, c := range []struct {
		exp     portmodel.Experiment
		wantErr string
	}{
		{portmodel.Exp("x"), `portmodel: no usage known for "x"`},
		{portmodel.Experiment{"iA": -1}, `portmodel: negative count for "iA"`},
	} {
		bad := append(slices.Clone(exps), MeasuredExp{Exp: c.exp, TInv: 1.0})
		if _, err := in.FindMappingBudget(context.Background(), bad, nil); err == nil || err.Error() != c.wantErr {
			t.Errorf("FindMappingBudget(%v) error %v, want %q", c.exp, err, c.wantErr)
		}
		if _, err := in.FindOtherMappingBudget(context.Background(), bad, m1, 2, 4, 100, nil); err == nil || err.Error() != c.wantErr {
			t.Errorf("FindOtherMappingBudget(%v) error %v, want %q", c.exp, err, c.wantErr)
		}
		if got := in.lemmas; !reflect.DeepEqual(got, before) {
			t.Fatalf("%v: lemma store changed: %d -> %d lemmas", c.exp, len(before), len(got))
		}
	}
}

// TestFindOtherMappingRejectsIncompleteMapping: an m1 without a usage
// for some instance key cannot be compiled over the instance keys, so
// the uniqueness search fails with the reference evaluator's error
// before any search and leaves the lemma store as it found it.
func TestFindOtherMappingRejectsIncompleteMapping(t *testing.T) {
	in := toyInstance()
	exps := append(toyExps(), MeasuredExp{Exp: portmodel.Experiment{"iA": 1, "iB": 1}, TInv: 2.0})
	if _, err := in.FindMapping(exps); err != nil {
		t.Fatal(err)
	}
	if len(in.lemmas) == 0 {
		t.Fatal("setup learned no lemma; the store check would be vacuous")
	}
	before := slices.Clone(in.lemmas)
	m1 := portmodel.NewMapping(2)
	m1.Set("iA", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 1), Count: 1}})
	const want = `portmodel: no usage known for "iB"`
	if _, err := in.FindOtherMapping(exps, m1, 2, 4, 100); err == nil || err.Error() != want {
		t.Fatalf("FindOtherMapping error %v, want %q", err, want)
	}
	if got := in.lemmas; !reflect.DeepEqual(got, before) {
		t.Fatalf("lemma store changed: %d -> %d lemmas", len(before), len(got))
	}
}
