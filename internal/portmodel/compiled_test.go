// External test package: the property tests cross-check the compiled
// evaluator against the LP solver, and internal/lp imports portmodel.
package portmodel_test

import (
	"fmt"
	"math"
	"math/rand"
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
			gotQ, gotV, err := c.BottleneckWitness(e)
			if err != nil {
				t.Fatalf("trial %d: compiled witness: %v", trial, err)
			}
			if gotQ != refQ || gotV != refV {
				t.Fatalf("trial %d, %v: compiled witness (%v, %v), reference (%v, %v)",
					trial, e, gotQ, gotV, refQ, refV)
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
			if got := c.InverseThroughputWeights(w); got != refInv {
				t.Fatalf("trial %d, %v: dense tp⁻¹ = %v, reference %v", trial, e, got, refInv)
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

// TestCompiledZeroAllocSteadyState proves the hot paths allocate
// nothing once warm: the dense-weight queries never allocate, and the
// Experiment-keyed queries stop allocating once memoized.
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
		c.InverseThroughputWeights(w)
		c.InverseThroughputBoundedWeights(w, total, 5)
		c.BottleneckWitnessWeights(w)
	}); avg != 0 {
		t.Fatalf("dense-weight queries allocate %v per run, want 0", avg)
	}

	// Warm the memo, then the Experiment path must not allocate either.
	if _, err := c.InverseThroughput(e); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.InverseThroughput(e); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InverseThroughputBounded(e, 5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.BottleneckWitness(e); err != nil {
			t.Fatal(err)
		}
		if _, err := c.IPC(e, 5); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("memoized experiment queries allocate %v per run, want 0", avg)
	}

	// Re-interning a fresh but equal experiment also stays allocation
	// free: the weight scratch and key buffer are reused and the memo
	// probe is a zero-copy map lookup.
	e2 := e.Clone()
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.InverseThroughput(e2); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("memo-hit experiment query allocates %v per run, want 0", avg)
	}
}

// FuzzCompiledMatchesReference drives randomized mapping/experiment
// shapes from fuzz input bytes and checks bit-identity.
func FuzzCompiledMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(99), uint8(10), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, ports, nkeys uint8) {
		numPorts := 1 + int(ports)%portmodel.MaxPorts
		numKeys := 1 + int(nkeys)%8
		rng := rand.New(rand.NewSource(seed))
		m := randomMapping(rng, numPorts, numKeys, 3)
		c, err := portmodel.CompileMapping(m, nil)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		for q := 0; q < 5; q++ {
			e := randomExperiment(rng, numKeys)
			want, err := m.InverseThroughput(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.InverseThroughput(e)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: compiled %v, reference %v", e, got, want)
			}
			wantQ, _, err := m.BottleneckWitness(e)
			if err != nil {
				t.Fatal(err)
			}
			gotQ, _, err := c.BottleneckWitness(e)
			if err != nil {
				t.Fatal(err)
			}
			if gotQ != wantQ {
				t.Fatalf("%v: witness compiled %v, reference %v", e, gotQ, wantQ)
			}
		}
	})
}
