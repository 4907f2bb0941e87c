package portmodel

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPortSetBasics(t *testing.T) {
	s := MakePortSet(0, 3, 5)
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Fatalf("Has gave wrong membership for %v", s)
	}
	if got := s.String(); got != "[0,3,5]" {
		t.Fatalf("String = %q", got)
	}
	if !MakePortSet(0, 3).SubsetOf(s) {
		t.Fatal("subset check failed")
	}
	if s.SubsetOf(MakePortSet(0, 3)) {
		t.Fatal("superset wrongly reported as subset")
	}
	ports := s.Ports()
	if len(ports) != 3 || ports[0] != 0 || ports[1] != 3 || ports[2] != 5 {
		t.Fatalf("Ports = %v", ports)
	}
}

func TestMakePortSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range port")
		}
	}()
	MakePortSet(MaxPorts)
}

func TestUsageNormalizeAndEqual(t *testing.T) {
	u := Usage{
		{Ports: MakePortSet(1), Count: 1},
		{Ports: MakePortSet(0, 1), Count: 2},
		{Ports: MakePortSet(1), Count: 2},
		{Ports: MakePortSet(2), Count: 0},
	}.Normalize()
	want := Usage{
		{Ports: MakePortSet(1), Count: 3},
		{Ports: MakePortSet(0, 1), Count: 2},
	}
	if !u.Equal(want) {
		t.Fatalf("Normalize/Equal: got %v want %v", u, want)
	}
	if u.TotalUops() != 5 {
		t.Fatalf("TotalUops = %d, want 5", u.TotalUops())
	}
	if n := testing.AllocsPerRun(10, func() { u.Equal(want) }); n != 0 {
		t.Errorf("Equal of normalized usages allocates %.0f times", n)
	}

	// Unnormalized operands compare as the multisets they denote and
	// are left as they were.
	p0, p1, p01 := MakePortSet(0), MakePortSet(1), MakePortSet(0, 1)
	cases := []struct {
		name string
		a, b Usage
		want bool
	}{
		{"unsorted", Usage{{p01, 2}, {p1, 3}}, want, true},
		{"zero count", Usage{{p1, 3}, {p0, 0}, {p01, 2}}, want, true},
		{"repeated port set", Usage{{p1, 1}, {p01, 2}, {p1, 2}}, want, true},
		{"both unnormalized", Usage{{p01, 1}, {p1, 3}, {p01, 1}}, Usage{{p1, 2}, {p01, 2}, {p1, 1}}, true},
		{"only zero counts", Usage{{p0, 0}}, nil, true},
		{"count differs", Usage{{p01, 2}, {p1, 2}}, want, false},
		{"port set differs", Usage{{p01, 2}, {p0, 3}}, want, false},
		{"extra µop", Usage{{p01, 2}, {p1, 3}, {p0, 0}, {p0, 1}}, want, false},
	}
	for _, c := range cases {
		a, b := slices.Clone(c.a), slices.Clone(c.b)
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%s: %v.Equal(%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("%s: %v.Equal(%v) = %v, want %v", c.name, c.b, c.a, got, c.want)
		}
		if !reflect.DeepEqual(a, c.a) || !reflect.DeepEqual(b, c.b) {
			t.Errorf("%s: Equal changed its operands", c.name)
		}
	}
}

func TestUsageString(t *testing.T) {
	u := Usage{
		{Ports: MakePortSet(6, 7, 8, 9), Count: 1},
		{Ports: MakePortSet(4, 5), Count: 2},
	}
	if got := u.String(); got != "2×[4,5] + [6,7,8,9]" {
		t.Fatalf("String = %q", got)
	}
	if got := (Usage{}).String(); got != "(no µops)" {
		t.Fatalf("empty String = %q", got)
	}
}

// paperMapping builds the example mapping of Figure 2(a): add = 1×u1,
// mul = 1×u2, fma = 2×u1 + 1×u2, where u1 can use ports {0,1} and u2
// only port {1}.
func paperMapping() *Mapping {
	m := NewMapping(2)
	u1 := MakePortSet(0, 1)
	u2 := MakePortSet(1)
	m.Set("add", Usage{{Ports: u1, Count: 1}})
	m.Set("mul", Usage{{Ports: u2, Count: 1}})
	m.Set("fma", Usage{{Ports: u1, Count: 2}, {Ports: u2, Count: 1}})
	return m
}

func TestInverseThroughputFigure2(t *testing.T) {
	m := paperMapping()
	// [mul, mul, fma]: paper reports 3 cycles (Figure 2b).
	tp, err := m.InverseThroughput(Experiment{"mul": 2, "fma": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tp, 3) {
		t.Fatalf("tp⁻¹([mul,mul,fma]) = %v, want 3", tp)
	}
}

func TestInverseThroughputFigure3(t *testing.T) {
	m := paperMapping()
	// Figure 3a: fma with 3 mul blocking instructions: 4 cycles.
	tp, err := m.InverseThroughput(Experiment{"mul": 3, "fma": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tp, 4) {
		t.Fatalf("tp⁻¹ = %v, want 4", tp)
	}
	// Figure 3b: fma with 6 add blocking instructions: 4.5 cycles.
	tp, err = m.InverseThroughput(Experiment{"add": 6, "fma": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tp, 4.5) {
		t.Fatalf("tp⁻¹ = %v, want 4.5", tp)
	}
}

func TestInverseThroughputSingletons(t *testing.T) {
	m := paperMapping()
	cases := []struct {
		e    Experiment
		want float64
	}{
		{Exp("add"), 0.5},
		{Exp("mul"), 1},
		{Exp("fma"), 1.5},
		{Experiment{"add": 4}, 2},
		{Experiment{}, 0},
	}
	for _, c := range cases {
		got, err := m.InverseThroughput(c.e)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want) {
			t.Errorf("tp⁻¹(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestInverseThroughputUnknownKey(t *testing.T) {
	m := paperMapping()
	if _, err := m.InverseThroughput(Exp("bogus")); err == nil {
		t.Fatal("expected error for unknown instruction")
	}
	if _, err := m.InverseThroughput(Experiment{"add": -1}); err == nil {
		t.Fatal("expected error for negative count")
	}
}

func TestZeroUopInstructions(t *testing.T) {
	m := paperMapping()
	m.Set("nop", Usage{})
	tp, err := m.InverseThroughput(Experiment{"nop": 10})
	if err != nil {
		t.Fatal(err)
	}
	if tp != 0 {
		t.Fatalf("tp⁻¹(nops) = %v, want 0", tp)
	}
}

func TestIPCAndBottleneck(t *testing.T) {
	m := paperMapping()
	// 4 adds take 2 cycles -> 2 IPC uncapped.
	ipc, err := m.IPC(Experiment{"add": 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ipc, 2) {
		t.Fatalf("IPC = %v, want 2", ipc)
	}
	// With rmax = 1.5 the frontend caps IPC.
	ipc, err = m.IPC(Experiment{"add": 4}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ipc, 1.5) {
		t.Fatalf("capped IPC = %v, want 1.5", ipc)
	}
	inv, err := m.InverseThroughputBounded(Experiment{"add": 4}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(inv, 4/1.5) {
		t.Fatalf("bounded tp⁻¹ = %v, want %v", inv, 4/1.5)
	}
}

func TestBottleneckWitness(t *testing.T) {
	m := paperMapping()
	q, v, err := m.BottleneckWitness(Experiment{"mul": 2, "fma": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 3) {
		t.Fatalf("witness value = %v, want 3", v)
	}
	// The witness must actually achieve the bound: mass confined to q
	// divided by |q| equals v. For this experiment q must be {1}.
	if q != MakePortSet(1) {
		t.Fatalf("witness set = %v, want [1]", q)
	}
}

func TestPortPermutationPreservesThroughput(t *testing.T) {
	m := paperMapping()
	p, err := m.PortPermutation([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Experiment{Exp("add"), Exp("mul"), Exp("fma"), {"mul": 2, "fma": 1}} {
		a, _ := m.InverseThroughput(e)
		b, _ := p.InverseThroughput(e)
		if !almostEqual(a, b) {
			t.Fatalf("permutation changed throughput of %v: %v vs %v", e, a, b)
		}
	}
	if !m.Isomorphic(p) {
		t.Fatal("permuted mapping not recognized as isomorphic")
	}
}

func TestPortPermutationErrors(t *testing.T) {
	m := paperMapping()
	if _, err := m.PortPermutation([]int{0}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := m.PortPermutation([]int{0, 0}); err == nil {
		t.Fatal("expected invalid permutation error")
	}
}

func TestIsomorphicNegative(t *testing.T) {
	m := paperMapping()
	other := NewMapping(2)
	other.Set("add", Usage{{Ports: MakePortSet(0), Count: 1}}) // narrower
	other.Set("mul", Usage{{Ports: MakePortSet(1), Count: 1}})
	other.Set("fma", Usage{{Ports: MakePortSet(0, 1), Count: 2}, {Ports: MakePortSet(1), Count: 1}})
	if m.Isomorphic(other) {
		t.Fatal("structurally different mappings reported isomorphic")
	}
	// Different instruction sets are never isomorphic.
	third := NewMapping(2)
	third.Set("add", Usage{{Ports: MakePortSet(0, 1), Count: 1}})
	if m.Isomorphic(third) {
		t.Fatal("mappings over different keys reported isomorphic")
	}
}

func TestValidate(t *testing.T) {
	m := NewMapping(2)
	m.Usage["bad"] = Usage{{Ports: 0, Count: 1}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected empty-port-set error")
	}
	m = NewMapping(2)
	m.Usage["bad"] = Usage{{Ports: MakePortSet(5), Count: 1}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected out-of-range port error")
	}
	m = NewMapping(2)
	m.Usage["bad"] = Usage{{Ports: MakePortSet(0), Count: -1}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected negative count error")
	}
	if err := paperMapping().Validate(); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
}

func TestExperimentHelpers(t *testing.T) {
	e := Exp("a", "b", "a")
	if e.Len() != 3 || e["a"] != 2 || e["b"] != 1 {
		t.Fatalf("Exp built %v", e)
	}
	c := e.Clone()
	c["a"] = 5
	if e["a"] != 2 {
		t.Fatal("Clone aliases storage")
	}
	if got := e.String(); got != "[2×a, b]" {
		t.Fatalf("String = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := paperMapping()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Mapping
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumPorts != m.NumPorts {
		t.Fatalf("NumPorts %d != %d", back.NumPorts, m.NumPorts)
	}
	for _, k := range m.Keys() {
		if !back.Usage[k].Equal(m.Usage[k]) {
			t.Fatalf("usage of %s changed across JSON: %v vs %v", k, back.Usage[k], m.Usage[k])
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var m Mapping
	if err := json.Unmarshal([]byte(`{"num_ports":0,"usage":{}}`), &m); err == nil {
		t.Fatal("expected error for zero ports")
	}
	if err := json.Unmarshal([]byte(`{"num_ports":2,"usage":{"x":[{"ports":[9],"count":1}]}}`), &m); err == nil {
		t.Fatal("expected error for out-of-range port")
	}
}
