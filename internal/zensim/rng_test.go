package zensim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds at the edges of the stdlib's seed reduction:
// zero (replaced by 89482311), ±1, ±(2³¹−1) (which reduce to zero) and
// 89482311 itself.
var edgeSeeds = []int64{0, 1, -1, int32max, -int32max, 89482311}

// sameDraws compares the simulator's calls — NormFloat64 and Intn(2) —
// on simSource and on rand.NewSource for one seed.
func sameDraws(t testing.TB, seed int64, draws int) {
	t.Helper()
	var src simSource
	src.Seed(seed)
	got, want := rand.New(&src), rand.New(rand.NewSource(seed))
	for k := 0; k < draws; k++ {
		if k%3 == 2 {
			if g, w := got.Intn(2), want.Intn(2); g != w {
				t.Fatalf("seed %d call %d: Intn(2) = %d, stdlib %d", seed, k, g, w)
			}
			continue
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d call %d: NormFloat64 = %v, stdlib %v", seed, k, g, w)
		}
	}
}

// sameInt63 compares n raw Int63 draws of simSource and rand.NewSource.
func sameInt63(t testing.TB, seed int64, n int) {
	t.Helper()
	var src simSource
	src.Seed(seed)
	ref := rand.NewSource(seed)
	for k := 0; k < n; k++ {
		if g, w := src.Int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d draw %d: Int63 = %d, stdlib %d", seed, k, g, w)
		}
	}
}

// TestSimSourceMatchesStdlib is the tripwire between simSource and
// math/rand: the on-demand path must be active on this toolchain, and
// its stream must equal rand.NewSource's for 20,000 random seeds, the
// edge seeds, and 1,500 raw draws across the fallback at draw 273 —
// both with the on-demand path and with every draw taken by the
// fallback, the path a toolchain whose math/rand fails the init
// self-check would take.
func TestSimSourceMatchesStdlib(t *testing.T) {
	if onDemandLimit != rngTap {
		t.Fatalf("on-demand limit %d, want %d: math/rand no longer matches simSource's model of it, so every draw seeds a stdlib source", onDemandLimit, rngTap)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		sameDraws(t, int64(r.Uint64()), 6)
	}
	defer func() { onDemandLimit = rngTap }()
	for _, limit := range []int{rngTap, 0} {
		onDemandLimit = limit
		for _, seed := range edgeSeeds {
			sameDraws(t, seed, 400)
			sameInt63(t, seed, 1500)
		}
		sameInt63(t, ExecSeed(2600, KernelHash([]string{"add GPR[32], GPR[32]"}), 0), 1500)
	}
}

// FuzzSimSourceMatchesStdlib checks simSource against rand.NewSource
// for fuzzed seeds: the simulator's calls, then raw Int63 draws past
// the on-demand horizon.
func FuzzSimSourceMatchesStdlib(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameDraws(t, seed, 8)
		sameInt63(t, seed, int(n%1024))
	})
}

// TestKernelHashIsFNV64a pins KernelHash to FNV-64a over the keys
// with NUL separators: it seeds every execution's noise stream.
func TestKernelHashIsFNV64a(t *testing.T) {
	for _, kernel := range [][]string{nil, {""}, {"add GPR[32], GPR[32]"}, {"nop", "vpor XMM, XMM, XMM", "nop"}} {
		h := fnv.New64a()
		for _, k := range kernel {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		if got, want := KernelHash(kernel), h.Sum64(); got != want {
			t.Fatalf("KernelHash(%q) = %#x, FNV-64a %#x", kernel, got, want)
		}
	}
}
