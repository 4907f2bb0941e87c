package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zenport/internal/portmodel"
)

func paperMapping() *portmodel.Mapping {
	m := portmodel.NewMapping(2)
	u1 := portmodel.MakePortSet(0, 1)
	u2 := portmodel.MakePortSet(1)
	m.Set("add", portmodel.Usage{{Ports: u1, Count: 1}})
	m.Set("mul", portmodel.Usage{{Ports: u2, Count: 1}})
	m.Set("fma", portmodel.Usage{{Ports: u1, Count: 2}, {Ports: u2, Count: 1}})
	return m
}

func TestLPThroughputMatchesPaperExamples(t *testing.T) {
	m := paperMapping()
	cases := []struct {
		e    portmodel.Experiment
		want float64
	}{
		{portmodel.Experiment{"mul": 2, "fma": 1}, 3},
		{portmodel.Experiment{"mul": 3, "fma": 1}, 4},
		{portmodel.Experiment{"add": 6, "fma": 1}, 4.5},
		{portmodel.Exp("add"), 0.5},
		{portmodel.Experiment{}, 0},
	}
	for _, c := range cases {
		got, err := InverseThroughput(m, c.e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-7 {
			t.Errorf("LP tp⁻¹(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestLPThroughputUnknownKey(t *testing.T) {
	if _, err := InverseThroughput(paperMapping(), portmodel.Exp("nope")); err == nil {
		t.Fatal("expected error")
	}
}

// randomMapping builds a random mapping over numPorts ports and a few
// instructions, used for the agreement property test.
func randomMapping(r *rand.Rand, numPorts, numInsns int) *portmodel.Mapping {
	m := portmodel.NewMapping(numPorts)
	for i := 0; i < numInsns; i++ {
		nUops := 1 + r.Intn(3)
		var u portmodel.Usage
		for j := 0; j < nUops; j++ {
			var ps portmodel.PortSet
			for ps == 0 {
				for k := 0; k < numPorts; k++ {
					if r.Intn(2) == 0 {
						ps |= 1 << uint(k)
					}
				}
			}
			u = append(u, portmodel.Uop{Ports: ps, Count: 1 + r.Intn(2)})
		}
		m.Set(key(i), u)
	}
	return m
}

func key(i int) string { return string(rune('a' + i)) }

// TestLPAgreesWithCombinatorialEvaluator is the central property test:
// the simplex solution of the Section 2.2 LP and the bottleneck-set
// formula must agree on random mappings and experiments.
func TestLPAgreesWithCombinatorialEvaluator(t *testing.T) {
	r := rand.New(rand.NewSource(20240427))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		numPorts := 2 + r.Intn(5)
		numInsns := 1 + r.Intn(4)
		m := randomMapping(r, numPorts, numInsns)
		e := make(portmodel.Experiment)
		for j := 0; j < numInsns; j++ {
			if c := r.Intn(4); c > 0 {
				e[key(j)] = c
			}
		}
		want, err := m.InverseThroughput(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InverseThroughput(m, e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("iter %d: LP %v != combinatorial %v\nmapping: %v\nexp: %v", i, got, want, m, e)
		}
	}
}

// TestThroughputMonotoneInPorts checks the monotonicity property the
// CEGAR theory lemmas depend on: widening any µop's port set can only
// decrease (or keep) the inverse throughput.
func TestThroughputMonotoneInPorts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		numPorts := 2 + rr.Intn(4)
		m := randomMapping(rr, numPorts, 2)
		e := portmodel.Experiment{key(0): 1 + rr.Intn(3), key(1): 1 + rr.Intn(3)}
		base, err := m.InverseThroughput(e)
		if err != nil {
			return false
		}
		// Widen one random µop of one instruction.
		wide := m.Clone()
		u := wide.Usage[key(0)].Clone()
		u[0].Ports |= 1 << uint(rr.Intn(numPorts))
		wide.Set(key(0), u)
		after, err := wide.InverseThroughput(e)
		if err != nil {
			return false
		}
		return after <= base+1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestThroughputSuperadditive checks tp(e1 ∪ e2) <= tp(e1) + tp(e2)
// (mass is additive, max of sums <= sum of maxes), which underlies the
// equivalence check of Section 3.2.
func TestThroughputSubadditive(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		numPorts := 2 + r.Intn(4)
		m := randomMapping(r, numPorts, 2)
		e1 := portmodel.Experiment{key(0): 1 + r.Intn(3)}
		e2 := portmodel.Experiment{key(1): 1 + r.Intn(3)}
		both := e1.Clone()
		for k, v := range e2 {
			both[k] += v
		}
		t1, _ := m.InverseThroughput(e1)
		t2, _ := m.InverseThroughput(e2)
		tb, _ := m.InverseThroughput(both)
		if tb > t1+t2+1e-9 {
			t.Fatalf("subadditivity violated: %v > %v + %v", tb, t1, t2)
		}
		if tb < math.Max(t1, t2)-1e-9 {
			t.Fatalf("monotonicity violated: %v < max(%v,%v)", tb, t1, t2)
		}
	}
}

// fuzzInstance decodes fuzz input into a mapping over at most 10 ports
// and an experiment on it. Byte 0 gives the port count (1 + b%10),
// byte 1 the scheme count (1 + b%4). Each scheme then reads one byte
// for its µop count (1 + b%3) and three bytes per µop: a little-endian
// port mask (an empty mask becomes port 0) and the µop count
// (1 + b%3). The remaining bytes are the experiment's per-scheme
// counts (b%5). Missing bytes read as zero.
func fuzzInstance(data []byte) (*portmodel.Mapping, portmodel.Experiment) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	numPorts := 1 + next()%10
	numKeys := 1 + next()%4
	all := portmodel.PortSet(1)<<uint(numPorts) - 1
	m := portmodel.NewMapping(numPorts)
	for i := 0; i < numKeys; i++ {
		u := make(portmodel.Usage, 1+next()%3)
		for j := range u {
			ps := portmodel.PortSet(next()|next()<<8) & all
			if ps == 0 {
				ps = 1
			}
			u[j] = portmodel.Uop{Ports: ps, Count: 1 + next()%3}
		}
		m.Set(key(i), u)
	}
	e := make(portmodel.Experiment)
	for i := 0; i < numKeys; i++ {
		if c := next() % 5; c > 0 {
			e[key(i)] = c
		}
	}
	return m, e
}

// FuzzLPMatchesReference checks the simplex solution of the Section
// 2.2 LP against the exact bottleneck-set evaluator on decoded
// mappings and experiments, within the tolerance the compiled
// evaluator's property test uses.
func FuzzLPMatchesReference(f *testing.F) {
	// The paper's mapping: add on {0,1}, mul on {1}, fma = 2×{0,1} + {1};
	// [2×mul, fma] runs at 3 cycles.
	f.Add([]byte{1, 2, 0, 3, 0, 0, 0, 2, 0, 0, 1, 3, 0, 1, 2, 0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		m, e := fuzzInstance(data)
		want, err := m.InverseThroughput(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InverseThroughput(m, e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("LP %v, bottleneck sets %v\nmapping: %v\nexp: %v", got, want, m, e)
		}
	})
}
