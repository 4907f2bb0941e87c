package zensim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenExecuteDigest is the sha256 of every counter the simulator
// returned for TestExecuteGolden's kernel sample. It pins the
// simulator's output bit for bit: a change that moves it changes the
// measurements every cached campaign and the committed mapping were
// built from.
const goldenExecuteDigest = "05a4ee16ae9a5e2cd7430dfcf8978dab71ffc345510b7e06b3b237d09e44122f"

// TestExecuteGolden runs a seeded sample of 12,000 kernels (1–4
// distinct schemes of the full database, 1–8 copies each, noise 0.001,
// anomalies on) on a default and a per-port-counter machine, executes
// every third kernel a second time to exercise the repetition index,
// and hashes the float bits of every Counters field into one digest.
func TestExecuteGolden(t *testing.T) {
	keys := testDB.Keys()
	machines := []*Machine{
		NewMachine(testDB, Config{Noise: 0.001, Seed: 2600}),
		NewMachine(testDB, Config{Noise: 0.001, Seed: 2600, PerPortCounters: true}),
	}
	r := rand.New(rand.NewSource(21))
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putFloats := func(fs []float64) {
		put(uint64(len(fs)))
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	const kernels = 12000
	for i := 0; i < kernels; i++ {
		var kernel []string
		picked := make(map[string]bool)
		for n := 1 + r.Intn(4); len(picked) < n; {
			key := keys[r.Intn(len(keys))]
			if picked[key] {
				continue
			}
			picked[key] = true
			for c := 1 + r.Intn(8); c > 0; c-- {
				kernel = append(kernel, key)
			}
		}
		iterations := 1 + r.Intn(1000)
		runs := 1
		if i%3 == 0 {
			runs = 2
		}
		for run := 0; run < runs; run++ {
			for _, m := range machines {
				c, err := m.Execute(kernel, iterations)
				if err != nil {
					t.Fatalf("kernel %q: %v", kernel, err)
				}
				put(math.Float64bits(c.Cycles))
				put(c.Instructions)
				put(c.Ops)
				putFloats(c.PortOps)
				putFloats(c.FPPortOps)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenExecuteDigest {
		t.Fatalf("simulator output digest %s, want %s", got, goldenExecuteDigest)
	}
}
