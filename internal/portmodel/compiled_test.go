// External test package: the property tests cross-check the compiled
// evaluator against the LP solver, and internal/lp imports portmodel.
package portmodel_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"zenport/internal/lp"
	"zenport/internal/portmodel"
)

// randomMapping builds a random mapping over numKeys schemes.
func randomMapping(rng *rand.Rand, numPorts, numKeys, maxUops int) *portmodel.Mapping {
	m := portmodel.NewMapping(numPorts)
	for i := 0; i < numKeys; i++ {
		n := 1 + rng.Intn(maxUops)
		var u portmodel.Usage
		for j := 0; j < n; j++ {
			var ps portmodel.PortSet
			for ps == 0 {
				for k := 0; k < numPorts; k++ {
					if rng.Intn(3) == 0 {
						ps |= 1 << uint(k)
					}
				}
			}
			u = append(u, portmodel.Uop{Ports: ps, Count: 1 + rng.Intn(3)})
		}
		m.Set(fmt.Sprintf("insn%d", i), u)
	}
	return m
}

func randomExperiment(rng *rand.Rand, numKeys int) portmodel.Experiment {
	e := make(portmodel.Experiment)
	terms := 1 + rng.Intn(4)
	for t := 0; t < terms; t++ {
		e[fmt.Sprintf("insn%d", rng.Intn(numKeys))] += 1 + rng.Intn(5)
	}
	return e
}

// TestCompiledMatchesReferenceRandom is the central contract of the
// compiled evaluator: bit-identical inverse throughputs and witnesses
// on random mappings and experiments, and agreement with the
// independent LP solver within its tolerance.
func TestCompiledMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		numPorts := 2 + rng.Intn(9) // up to 10, like Zen
		numKeys := 1 + rng.Intn(6)
		m := randomMapping(rng, numPorts, numKeys, 3)
		c, err := portmodel.CompileMapping(m, nil)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		for q := 0; q < 10; q++ {
			e := randomExperiment(rng, numKeys)

			refInv, err := m.InverseThroughput(e)
			if err != nil {
				t.Fatalf("trial %d: reference: %v", trial, err)
			}
			gotInv, err := c.InverseThroughput(e)
			if err != nil {
				t.Fatalf("trial %d: compiled: %v", trial, err)
			}
			if gotInv != refInv {
				t.Fatalf("trial %d, %v: compiled tp⁻¹ = %v, reference %v", trial, e, gotInv, refInv)
			}

			refQ, refV, err := m.BottleneckWitness(e)
			if err != nil {
				t.Fatalf("trial %d: reference witness: %v", trial, err)
			}
			ev, err := c.Evaluate(e)
			if err != nil {
				t.Fatalf("trial %d: compiled witness: %v", trial, err)
			}
			if ev.Witness != refQ || ev.Inv != refV || ev.Total != e.Len() {
				t.Fatalf("trial %d, %v: compiled evaluation %+v, reference witness (%v, %v), total %d",
					trial, e, ev, refQ, refV, e.Len())
			}

			rmax := float64(1 + rng.Intn(6))
			refB, err := m.InverseThroughputBounded(e, rmax)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := c.InverseThroughputBounded(e, rmax)
			if err != nil {
				t.Fatal(err)
			}
			if gotB != refB {
				t.Fatalf("trial %d, %v: bounded compiled %v, reference %v", trial, e, gotB, refB)
			}

			refIPC, err := m.IPC(e, rmax)
			if err != nil {
				t.Fatal(err)
			}
			gotIPC, err := c.IPC(e, rmax)
			if err != nil {
				t.Fatal(err)
			}
			if gotIPC != refIPC {
				t.Fatalf("trial %d, %v: IPC compiled %v, reference %v", trial, e, gotIPC, refIPC)
			}

			// Dense-weight path agrees with the Experiment path.
			w, total, err := c.WeightVector(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.InverseThroughputBoundedWeights(w, total, rmax); got != refB {
				t.Fatalf("trial %d, %v: dense bounded = %v, reference %v", trial, e, got, refB)
			}
			if q2, v2 := c.BottleneckWitnessWeights(w); q2 != refQ || v2 != refV {
				t.Fatalf("trial %d, %v: dense witness (%v, %v), reference (%v, %v)",
					trial, e, q2, v2, refQ, refV)
			}

			// Independent cross-check on every other trial: the simplex
			// LP agrees within its numerical tolerance (both solve the
			// Section 2.2 LP).
			if trial%2 == 0 {
				lpInv, err := lp.InverseThroughput(m, e)
				if err != nil {
					t.Fatalf("trial %d: lp: %v", trial, err)
				}
				if math.Abs(lpInv-refInv) > 1e-6*(1+refInv) {
					t.Fatalf("trial %d, %v: lp tp⁻¹ = %v, combinatorial %v", trial, e, lpInv, refInv)
				}
			}
		}
	}
}

// TestCompiledErrorsMatchReference pins the error strings of the
// compiled path to the reference evaluator's.
func TestCompiledErrorsMatchReference(t *testing.T) {
	m := portmodel.NewMapping(3)
	m.Set("a", portmodel.Usage{{Ports: portmodel.MakePortSet(0), Count: 1}})
	c, err := portmodel.CompileMapping(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []portmodel.Experiment{
		{"missing": 1},
		{"a": -2},
	} {
		_, refErr := m.InverseThroughput(e)
		_, gotErr := c.InverseThroughput(e)
		if refErr == nil || gotErr == nil {
			t.Fatalf("%v: expected errors, got ref=%v compiled=%v", e, refErr, gotErr)
		}
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("%v: error mismatch: ref %q, compiled %q", e, refErr, gotErr)
		}
	}
}

// TestCompiledSetUop checks in-place µop retargeting (the SMT
// propagator's hook) against recompiling from scratch.
func TestCompiledSetUop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	numPorts := 4
	keys := []string{"a", "b"}
	usages := []portmodel.Usage{
		{{Ports: portmodel.MakePortSet(0), Count: 1}, {Ports: portmodel.MakePortSet(1), Count: 1}},
		{{Ports: portmodel.MakePortSet(2, 3), Count: 1}},
	}
	c, err := portmodel.CompileUsages(numPorts, keys, usages)
	if err != nil {
		t.Fatal(err)
	}
	e := portmodel.Experiment{"a": 3, "b": 2}
	for trial := 0; trial < 100; trial++ {
		for si, u := range usages {
			for j := range u {
				var ps portmodel.PortSet
				for ps == 0 {
					ps = portmodel.PortSet(rng.Intn(1 << numPorts))
				}
				usages[si][j].Ports = ps
				c.SetUop(int32(si), j, ps)
			}
		}
		fresh, err := portmodel.CompileUsages(numPorts, keys, usages)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.InverseThroughput(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.InverseThroughput(e)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: SetUop evaluator %v, fresh compile %v", trial, got, want)
		}
	}
}

// TestCompiledCountRange pins the interner's weight range: a count
// that fits an int32 weight evaluates bit-identically to the
// reference, and one above math.MaxInt32 is an error on every query
// path instead of a silently truncated weight (4294967296 truncates
// to 0, which used to answer tp⁻¹ = 0).
func TestCompiledCountRange(t *testing.T) {
	m := portmodel.NewMapping(3)
	m.Set("a", portmodel.Usage{{Ports: portmodel.MakePortSet(0, 1), Count: 3}})
	m.Set("b", portmodel.Usage{{Ports: portmodel.MakePortSet(2), Count: 1}})
	c, err := portmodel.CompileMapping(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := portmodel.Experiment{"a": math.MaxInt32, "b": 1}
	want, err := m.InverseThroughputBounded(at, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.InverseThroughputBounded(at, 5); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("count MaxInt32: compiled (%v, %v), reference %v", got, err, want)
	}
	for _, n := range []int{math.MaxInt32 + 1, 1 << 32, 1<<32 + 3} {
		e := portmodel.Experiment{"a": n, "b": 1}
		if err := compiledRangeErrors(c, e); err != nil {
			t.Fatalf("count %d: %v", n, err)
		}
	}
}

// compiledRangeErrors checks that every experiment-keyed query and
// WeightVector reject e, which holds a count above math.MaxInt32,
// with the interner's range error.
func compiledRangeErrors(c *portmodel.Compiled, e portmodel.Experiment) error {
	_, err1 := c.Evaluate(e)
	_, err2 := c.InverseThroughput(e)
	_, err3 := c.InverseThroughputBounded(e, 5)
	_, err4 := c.IPC(e, 0)
	_, _, err5 := c.WeightVector(e, nil)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds %d", math.MaxInt32)) {
			return fmt.Errorf("%v: got %v, want the count range error", e, err)
		}
	}
	return nil
}

// TestDenseBottleneckMatchesReference checks the shared dense kernel
// directly against Bottleneck on random integer masses (occupancy-
// weighted µop counts): the same value and witness, bit for bit, and
// no allocation.
func TestDenseBottleneckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sos [1 << 10]float64
	for trial := 0; trial < 2000; trial++ {
		numPorts := 1 + rng.Intn(10)
		mass := make(map[portmodel.PortSet]float64)
		for n := rng.Intn(6); n >= 0; n-- {
			ps := portmodel.PortSet(1 + rng.Intn(1<<numPorts-1))
			mass[ps] += float64((1 + rng.Intn(8)) * (1 + rng.Intn(20)))
		}
		var union portmodel.PortSet
		for ps, v := range mass {
			union |= ps
			sos[ps] = v
		}
		for q := union; q != 0; q = (q - 1) & union {
			if _, ok := mass[q]; !ok {
				sos[q] = 0
			}
		}
		wantQ, want := portmodel.Bottleneck(mass)
		gotQ, got := portmodel.DenseBottleneck(sos[:], union)
		if gotQ != wantQ || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("masses %v: dense (%v, %v), reference (%v, %v)", mass, gotQ, got, wantQ, want)
		}
	}
	if q, v := portmodel.DenseBottleneck(sos[:], 0); q != 0 || v != 0 {
		t.Fatalf("empty union: (%v, %v), want (0, 0)", q, v)
	}
	// All MaxPorts ports: the union is the largest PortSet value.
	all := portmodel.PortSet(1<<portmodel.MaxPorts - 1)
	mass := map[portmodel.PortSet]float64{all: 40, portmodel.MakePortSet(3): 3}
	big := make([]float64, 1<<portmodel.MaxPorts)
	for ps, v := range mass {
		big[ps] = v
	}
	wantQ, want := portmodel.Bottleneck(mass)
	if gotQ, got := portmodel.DenseBottleneck(big, all); gotQ != wantQ || got != want {
		t.Fatalf("%d ports: dense (%v, %v), reference (%v, %v)", portmodel.MaxPorts, gotQ, got, wantQ, want)
	}
	if avg := testing.AllocsPerRun(100, func() {
		portmodel.DenseBottleneck(sos[:], portmodel.MakePortSet(0, 1, 2, 3))
	}); avg != 0 {
		t.Fatalf("DenseBottleneck allocates %v per run, want 0", avg)
	}
}

// TestCompiledZeroAllocSteadyState proves the hot paths allocate
// nothing once warm: neither the dense-weight queries nor the
// Experiment-keyed ones, which reuse the weight scratch and touched
// list.
func TestCompiledZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMapping(rng, 10, 8, 3)
	c, err := portmodel.CompileMapping(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := portmodel.Experiment{"insn0": 4, "insn3": 1, "insn5": 2}
	w, total, err := c.WeightVector(e, nil)
	if err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(200, func() {
		c.InverseThroughputBoundedWeights(w, total, 5)
		c.BottleneckWitnessWeights(w)
	}); avg != 0 {
		t.Fatalf("dense-weight queries allocate %v per run, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.Evaluate(e); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InverseThroughput(e); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InverseThroughputBounded(e, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := c.IPC(e, 5); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("experiment queries allocate %v per run, want 0", avg)
	}
}

// FuzzCompiledMatchesReference drives randomized mapping/experiment
// shapes from fuzz input bytes and checks bit-identity of every
// experiment-keyed query with the reference: witness, tp⁻¹, and the
// bounded tp⁻¹ and IPC at a fuzzed rmax in [0, 63.75] (rmax 0 is the
// unbounded frontend). Schemes whose bit is set in zeroMask have no
// µops, so experiments made only of them give tp⁻¹ 0 and, at rmax 0,
// an IPC of +Inf. A count above math.MaxInt32 (over) must yield the
// range error, not a value.
func FuzzCompiledMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(20), uint8(0), uint32(0))
	f.Add(int64(99), uint8(10), uint8(6), uint8(0), uint8(0b101), uint32(1<<31))
	f.Fuzz(func(t *testing.T, seed int64, ports, nkeys, rmaxQ, zeroMask uint8, over uint32) {
		numPorts := 1 + int(ports)%portmodel.MaxPorts
		numKeys := 1 + int(nkeys)%8
		rmax := float64(rmaxQ) / 4
		rng := rand.New(rand.NewSource(seed))
		m := randomMapping(rng, numPorts, numKeys, 3)
		for i := 0; i < numKeys; i++ {
			if zeroMask&(1<<uint(i)) != 0 {
				m.Set(fmt.Sprintf("insn%d", i), nil)
			}
		}
		c, err := portmodel.CompileMapping(m, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		for q := 0; q < 5; q++ {
			e := randomExperiment(rng, numKeys)
			wantQ, wantInv, err := m.BottleneckWitness(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Evaluate(e)
			if err != nil {
				t.Fatal(err)
			}
			if got.Witness != wantQ || math.Float64bits(got.Inv) != math.Float64bits(wantInv) {
				t.Fatalf("%v: compiled (%v, %v), reference (%v, %v)", e, got.Witness, got.Inv, wantQ, wantInv)
			}
			for _, pair := range []struct {
				name string
				ref  func(portmodel.Experiment, float64) (float64, error)
				comp func(portmodel.Experiment, float64) (float64, error)
			}{
				{"bounded tp⁻¹", m.InverseThroughputBounded, c.InverseThroughputBounded},
				{"IPC", m.IPC, c.IPC},
			} {
				want, err := pair.ref(e, rmax)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pair.comp(e, rmax)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v at rmax %v: %s compiled %v, reference %v", e, rmax, pair.name, got, want)
				}
			}
			e["insn0"] = math.MaxInt32 + 1 + int(over)
			if err := compiledRangeErrors(c, e); err != nil {
				t.Fatal(err)
			}
		}
	})
}
