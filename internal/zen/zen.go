// Package zen instantiates the x86-64 instruction scheme database for
// AMD's Zen+ microarchitecture together with ground-truth behaviour:
// macro-op counts, µop decompositions with admissible ports, and the
// performance anomalies documented in Section 4 of Ritter & Hack
// (ASPLOS 2024).
//
// The ground truth plays the role of the physical Ryzen 5 2600X in
// the paper's case study: the simulator in package zensim executes
// kernels against it, and the inference pipeline in package core must
// rediscover it from measurements alone. Port numbering follows the
// paper's Table 2:
//
//	0..3  FP/vector pipes (FP0..FP3)
//	4     load AGU (port 4)
//	5     load/store AGU, the store port (port 5)
//	6..9  integer ALUs (ALU0..ALU3)
package zen

import (
	"fmt"
	"sort"
	"strings"

	"zenport/internal/isa"
	"zenport/internal/portmodel"
)

// NumPorts is the number of execution ports of the Zen+ model.
const NumPorts = 10

// Rmax is the frontend/retire bottleneck: at most 5 instructions
// (macro-ops) per cycle (§3.5, §4).
const Rmax = 5.0

// MSRate is the number of operations the microcode sequencer emits
// per cycle while stalling the rest of the frontend (§4.4).
const MSRate = 4.0

// Execution port groups of the Zen+ ground truth.
var (
	ALU     = portmodel.MakePortSet(6, 7, 8, 9) // scalar integer ALUs
	VALU    = portmodel.MakePortSet(0, 1, 2, 3) // all four FP/vector pipes
	VADD    = portmodel.MakePortSet(0, 1, 3)    // vector integer arithmetic
	FPMUL   = portmodel.MakePortSet(0, 1)       // FP multiply / compare
	SHUF    = portmodel.MakePortSet(1, 2)       // vector layouting/shuffles
	VADDS   = portmodel.MakePortSet(0, 3)       // saturating vector ops
	FPADD   = portmodel.MakePortSet(2, 3)       // FP additions
	LOAD    = portmodel.MakePortSet(4, 5)       // memory loads
	VSHIFT  = portmodel.MakePortSet(2)          // vector shifts
	VIMUL   = portmodel.MakePortSet(0)          // elaborate vector multiplies
	IMULP   = portmodel.MakePortSet(7)          // scalar integer multiply
	FPROUND = portmodel.MakePortSet(3)          // vector rounding
	XFER    = portmodel.MakePortSet(1)          // vector<->GPR transfers
	STORE   = portmodel.MakePortSet(5)          // memory stores
	AGU     = portmodel.MakePortSet(4, 5)       // address generation
)

// Spec is one instruction scheme with its Zen+ ground truth.
type Spec struct {
	Scheme isa.Scheme
	// MacroOps is what the PMCx0C1 "Retired Uops" counter reports
	// per instruction: macro-ops, not µops (§4.1.1).
	MacroOps int
	// Uops is the ground-truth µop decomposition with admissible
	// ports. Empty for no-port instructions (nop, eliminated movs).
	Uops portmodel.Usage
	// Occupancy is the number of cycles each µop occupies its port;
	// 1 for pipelined instructions, >1 for non-pipelined FP ops
	// (division, square root, reciprocals).
	Occupancy float64
	// MSOps is the number of macro-ops emitted through the microcode
	// sequencer. Zero means the instruction is decoded directly.
	MSOps int

	// key is Scheme.Key(), computed once by Build: the simulator
	// compares keys on every execution.
	key string
}

// Key returns the canonical scheme key.
func (s *Spec) Key() string { return s.key }

// DB is the Zen+ instruction database.
type DB struct {
	specs []*Spec
	byKey map[string]*Spec
	truth *portmodel.Mapping
}

// Build constructs the full database. The result is deterministic.
func Build() *DB {
	var specs []*Spec
	specs = append(specs, genScalarALU()...)
	specs = append(specs, genScalarMulBit()...)
	specs = append(specs, genMovsAndLoads()...)
	specs = append(specs, genStores()...)
	specs = append(specs, genVector()...)
	specs = append(specs, genProblem()...)
	specs = append(specs, genExcludedUpfront()...)

	db := &DB{specs: specs, byKey: make(map[string]*Spec, len(specs))}
	for _, sp := range specs {
		sp.key = sp.Scheme.Key()
		if _, dup := db.byKey[sp.key]; dup {
			panic(fmt.Sprintf("zen: duplicate scheme %q", sp.key))
		}
		if sp.Occupancy == 0 {
			sp.Occupancy = 1
		}
		db.byKey[sp.key] = sp
	}
	db.truth = portmodel.NewMapping(NumPorts)
	for _, sp := range specs {
		db.truth.Set(sp.Key(), sp.Uops)
	}
	return db
}

// Get returns the spec for a scheme key.
func (db *DB) Get(key string) (*Spec, bool) {
	sp, ok := db.byKey[key]
	return sp, ok
}

// MustGet returns the spec for a key or panics.
func (db *DB) MustGet(key string) *Spec {
	sp, ok := db.byKey[key]
	if !ok {
		panic(fmt.Sprintf("zen: unknown scheme %q", key))
	}
	return sp
}

// SchemeByKey returns the spec for a key, or a descriptive error
// suggesting the closest known keys. CLI paths that accept scheme
// keys from the user must use this (or Get) instead of MustGet: an
// unknown key is user input, not a programming error, and deserves a
// "did you mean" message rather than a stack trace.
func (db *DB) SchemeByKey(key string) (*Spec, error) {
	if sp, ok := db.byKey[key]; ok {
		return sp, nil
	}
	sugg := db.Suggest(key, 3)
	if len(sugg) > 0 {
		return nil, fmt.Errorf("zen: unknown scheme %q, did you mean %s?", key, strings.Join(sugg, ", "))
	}
	return nil, fmt.Errorf("zen: unknown scheme %q (use -list for all %d keys)", key, len(db.specs))
}

// Suggest returns up to n known scheme keys closest to key by edit
// distance, preferring keys sharing the mnemonic prefix. Ties break
// lexicographically so the output is deterministic.
func (db *DB) Suggest(key string, n int) []string {
	return SuggestKeys(db.Keys(), key, n)
}

// SuggestKeys is the "did you mean" engine behind Suggest, usable
// against any key universe — the serving daemon suggests over the
// keys of the queried mapping rather than the full Zen+ database.
// It returns up to n quoted candidates from keys closest to key by
// edit distance, preferring a shared mnemonic prefix; ties break
// lexicographically (pass keys sorted for fully deterministic output).
func SuggestKeys(keys []string, key string, n int) []string {
	type cand struct {
		key  string
		dist int
	}
	mn := strings.SplitN(key, " ", 2)[0]
	var cands []cand
	for _, k := range keys {
		d := editDistance(key, k)
		// A shared mnemonic is a much stronger signal than raw
		// distance over the operand suffix.
		if strings.SplitN(k, " ", 2)[0] == mn {
			d -= 10
		}
		if d <= len(key)/2 || d < 0 {
			cands = append(cands, cand{k, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].key < cands[j].key
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = fmt.Sprintf("%q", c.key)
	}
	return out
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, minInt(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Specs returns all specs in deterministic order.
func (db *DB) Specs() []*Spec { return db.specs }

// Keys returns all scheme keys, sorted.
func (db *DB) Keys() []string {
	keys := make([]string, 0, len(db.specs))
	for _, sp := range db.specs {
		keys = append(keys, sp.Key())
	}
	sort.Strings(keys)
	return keys
}

// Truth returns the ground-truth port mapping over all schemes.
func (db *DB) Truth() *portmodel.Mapping { return db.truth }

// Len returns the number of schemes.
func (db *DB) Len() int { return len(db.specs) }

// u1 builds a single-µop usage.
func u1(ps portmodel.PortSet) portmodel.Usage {
	return portmodel.Usage{{Ports: ps, Count: 1}}
}

// uN builds an n-µop usage of one kind.
func uN(ps portmodel.PortSet, n int) portmodel.Usage {
	return portmodel.Usage{{Ports: ps, Count: n}}
}

// cat concatenates usages.
func cat(us ...portmodel.Usage) portmodel.Usage {
	var out portmodel.Usage
	for _, u := range us {
		out = append(out, u...)
	}
	return out.Normalize()
}
