package zensim

import (
	"math/rand"
	"reflect"
)

// simSource is a rand.Source whose stream equals rand.NewSource(seed)
// draw for draw, without paying for the stdlib's seeding. Seeding the
// stdlib source fills a 607-word feedback register (1,842 Lehmer steps,
// about 13 µs and 5 KiB), while one simulated execution draws only a
// handful of values. simSource computes the few register words a draw
// reads on demand instead.
//
// The stdlib source (math/rand's rngSource, an additive lagged
// Fibonacci generator) seeds word i of its register as
//
//	vec[i] = c(21+3i)<<40 ^ c(22+3i)<<20 ^ c(23+3i) ^ rngCooked[i]
//
// with c(j) = 48271^j·seed mod (2³¹−1), and its draw k returns
// vec[333−k] + vec[606−k], storing the sum back to vec[333−k]. Until
// draw rngTap = 273 no draw reads a word an earlier draw overwrote, so
// each of those draws is two seeded words, six modular multiplications.
// From draw onDemandLimit on, simSource seeds a real stdlib source and
// skips it ahead past the draws already served.
type simSource struct {
	seed     uint64 // reduced seed in [1, 2³¹−2]
	n        int    // draws served so far
	fallback rand.Source
}

const (
	rngLen   = 607       // stdlib register length
	rngTap   = 273       // stdlib tap distance; the on-demand horizon
	int32max = 1<<31 - 1 // the Lehmer modulus 2³¹−1
	lehmerA  = 48271     // the Lehmer multiplier
	rngMask  = 1<<63 - 1
)

var (
	// lehmerPow[j] = 48271^j mod (2³¹−1), j < 21+3·rngLen.
	lehmerPow [21 + 3*rngLen]uint64
	// rngCooked is the stdlib's seeding constant, recovered at init
	// from the register of rand.NewSource(1).
	rngCooked [rngLen]uint64
	// onDemandLimit is the number of draws served on demand before the
	// stdlib fallback takes over: rngTap when the init self-check
	// against rand.NewSource passes, 0 (every draw from a real stdlib
	// source) when a toolchain's math/rand no longer matches the layout
	// described above.
	onDemandLimit = 0
)

func init() {
	lehmerPow[0] = 1
	for j := 1; j < len(lehmerPow); j++ {
		lehmerPow[j] = lehmerPow[j-1] * lehmerA % int32max
	}
	if recoverCooked() && selfCheck() {
		onDemandLimit = rngTap
	}
}

// recoverCooked reads the register of rand.NewSource(1) and XORs out
// the Lehmer chain of seed 1, leaving rngCooked. It reports false when
// the stdlib source no longer has the expected register.
func recoverCooked() bool {
	v := reflect.ValueOf(rand.NewSource(1))
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	vec := v.Elem().FieldByName("vec")
	if vec.Kind() != reflect.Array || vec.Len() != rngLen || vec.Type().Elem().Kind() != reflect.Int64 {
		return false
	}
	for i := range rngCooked {
		rngCooked[i] = uint64(vec.Index(i).Int()) ^ chain(1, i)
	}
	return true
}

// selfCheck compares the on-demand draws with rand.NewSource for a few
// seeds over the whole on-demand range.
func selfCheck() bool {
	for _, seed := range []int64{0, 1, -1, int32max, 2600, -7396012431} {
		var s simSource
		s.Seed(seed)
		ref := rand.NewSource(seed)
		for k := 0; k < rngTap; k++ {
			if s.onDemand(k) != ref.Int63() {
				return false
			}
		}
	}
	return true
}

// chain is the Lehmer part of register word i for a reduced seed.
func chain(seed uint64, i int) uint64 {
	p := lehmerPow[21+3*i:]
	return (p[0]*seed%int32max)<<40 ^ (p[1]*seed%int32max)<<20 ^ p[2]*seed%int32max
}

// word is seeded register word i.
func (s *simSource) word(i int) uint64 {
	return chain(s.seed, i) ^ rngCooked[i]
}

// onDemand is draw k < rngTap of the stdlib stream: the sum of the
// register's feed word rngLen−rngTap−1−k and tap word rngLen−1−k.
func (s *simSource) onDemand(k int) int64 {
	return int64((s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k)) & rngMask)
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *simSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = simSource{seed: uint64(seed)}
}

// Int63 returns the next draw of the stream.
func (s *simSource) Int63() int64 {
	if s.n < onDemandLimit {
		s.n++
		return s.onDemand(s.n - 1)
	}
	if s.fallback == nil {
		s.fallback = rand.NewSource(int64(s.seed))
		for k := 0; k < s.n; k++ {
			s.fallback.Int63()
		}
	}
	s.n++
	return s.fallback.Int63()
}
