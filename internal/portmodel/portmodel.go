// Package portmodel implements the formal port mapping model of
// Ritter & Hack (ASPLOS 2024) and Abel & Reineke (ASPLOS 2019):
// tripartite graphs between instruction schemes, µops, and execution
// ports, together with the steady-state inverse-throughput semantics
// given by the linear program of Section 2.2 of the paper.
//
// Throughput is computed exactly with the bottleneck-set
// characterization (Ritter & Hack, PLDI 2020, Section 4.5): the
// inverse throughput of an experiment equals
//
//	max over non-empty port sets Q of  mass(Q) / |Q|
//
// where mass(Q) is the total number of µops whose admissible ports are
// contained in Q. Package lp provides an independent simplex-based
// solution of the original LP; the two are property-tested against
// each other.
package portmodel

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// MaxPorts is the largest number of execution ports a Mapping may use.
// The exact throughput evaluator enumerates subsets of ports, so this
// is capped to keep evaluation cheap (2^16 subsets worst case).
const MaxPorts = 16

// PortSet is a bitmask of execution ports. Bit k set means port k is
// admissible.
type PortSet uint16

// MakePortSet builds a PortSet from explicit port indices.
func MakePortSet(ports ...int) PortSet {
	var s PortSet
	for _, p := range ports {
		if p < 0 || p >= MaxPorts {
			panic(fmt.Sprintf("portmodel: port index %d out of range", p))
		}
		s |= 1 << uint(p)
	}
	return s
}

// Size returns the number of ports in the set.
func (s PortSet) Size() int { return bits.OnesCount16(uint16(s)) }

// Has reports whether port k is in the set.
func (s PortSet) Has(k int) bool { return s&(1<<uint(k)) != 0 }

// SubsetOf reports whether every port of s is also in t.
func (s PortSet) SubsetOf(t PortSet) bool { return s&^t == 0 }

// Ports returns the sorted list of port indices in the set. An
// optional reuse buffer avoids the allocation on hot paths: the
// result is appended to reuse[0][:0] when given.
func (s PortSet) Ports(reuse ...[]int) []int {
	var out []int
	if len(reuse) > 0 {
		out = reuse[0][:0]
	} else {
		out = make([]int, 0, s.Size())
	}
	for k := 0; k < MaxPorts; k++ {
		if s.Has(k) {
			out = append(out, k)
		}
	}
	return out
}

// String renders the set in the paper's notation, e.g. "[6,7,8,9]".
func (s PortSet) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for _, p := range s.Ports() {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", p)
		first = false
	}
	b.WriteByte(']')
	return b.String()
}

// Uop is one micro-operation kind of an instruction's decomposition: a
// set of admissible ports and a multiplicity.
type Uop struct {
	Ports PortSet `json:"ports"`
	Count int     `json:"count"`
}

// Usage is the port usage of one instruction scheme: a multiset of
// µops, e.g. {2×[0,1], 1×[2]}. The zero value means "no µops"
// (e.g. an eliminated mov or a nop).
type Usage []Uop

// Normalize sorts the µops (by port set, then count) and merges
// duplicates. It returns the receiver for chaining.
func (u Usage) Normalize() Usage {
	sort.Slice(u, func(i, j int) bool {
		if u[i].Ports != u[j].Ports {
			return u[i].Ports < u[j].Ports
		}
		return u[i].Count < u[j].Count
	})
	out := u[:0]
	for _, x := range u {
		if x.Count == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Ports == x.Ports {
			out[len(out)-1].Count += x.Count
		} else {
			out = append(out, x)
		}
	}
	return out
}

// Clone returns a deep copy.
func (u Usage) Clone() Usage {
	out := make(Usage, len(u))
	copy(out, u)
	return out
}

// TotalUops returns the total number of µops (counting multiplicity).
func (u Usage) TotalUops() int {
	n := 0
	for _, x := range u {
		n += x.Count
	}
	return n
}

// Equal reports whether two usages denote the same multiset of µops.
// Usages already in normal form, as Mapping.Set stores them, are
// compared in place; others are normalized into copies first.
func (u Usage) Equal(v Usage) bool {
	a, b := u, v
	if !a.normal() || !b.normal() {
		a, b = u.Clone().Normalize(), v.Clone().Normalize()
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// normal reports whether u is its own Normalize: strictly ascending
// port sets, so sorted with no port set repeated, and no zero count.
func (u Usage) normal() bool {
	for i, x := range u {
		if x.Count == 0 || (i > 0 && u[i-1].Ports >= x.Ports) {
			return false
		}
	}
	return true
}

// String renders the usage in the paper's notation,
// e.g. "2×[0,1] + 1×[2]".
func (u Usage) String() string {
	if len(u) == 0 {
		return "(no µops)"
	}
	parts := make([]string, 0, len(u))
	for _, x := range u.Clone().Normalize() {
		if x.Count == 1 {
			parts = append(parts, x.Ports.String())
		} else {
			parts = append(parts, fmt.Sprintf("%d×%s", x.Count, x.Ports.String()))
		}
	}
	return strings.Join(parts, " + ")
}

// Experiment is a dependency-free instruction sequence, represented as
// a multiset: instruction key -> number of occurrences. Order is
// irrelevant in the port mapping model.
type Experiment map[string]int

// Len returns the total number of instructions in the experiment.
func (e Experiment) Len() int {
	n := 0
	for _, c := range e {
		n += c
	}
	return n
}

// Clone returns a copy of the experiment.
func (e Experiment) Clone() Experiment {
	out := make(Experiment, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Keys returns the instruction keys in sorted order.
func (e Experiment) Keys() []string {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the experiment like "[2×add, fma]".
func (e Experiment) String() string {
	parts := make([]string, 0, len(e))
	for _, k := range e.Keys() {
		if e[k] == 1 {
			parts = append(parts, k)
		} else {
			parts = append(parts, fmt.Sprintf("%d×%s", e[k], k))
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Exp is a convenience constructor: Exp("add", "add", "fma") or with
// counts via ExpCounts.
func Exp(keys ...string) Experiment {
	e := make(Experiment)
	for _, k := range keys {
		e[k]++
	}
	return e
}

// Mapping is a port mapping restricted to the instructions it knows
// about: instruction key -> µop usage.
type Mapping struct {
	NumPorts int              `json:"num_ports"`
	Usage    map[string]Usage `json:"usage"`
}

// NewMapping creates an empty mapping over numPorts ports.
func NewMapping(numPorts int) *Mapping {
	if numPorts <= 0 || numPorts > MaxPorts {
		panic(fmt.Sprintf("portmodel: invalid port count %d", numPorts))
	}
	return &Mapping{NumPorts: numPorts, Usage: make(map[string]Usage)}
}

// Set assigns the usage of an instruction key.
func (m *Mapping) Set(key string, u Usage) { m.Usage[key] = u.Clone().Normalize() }

// Get returns the usage of an instruction key.
func (m *Mapping) Get(key string) (Usage, bool) {
	u, ok := m.Usage[key]
	return u, ok
}

// Keys returns the instruction keys in sorted order.
func (m *Mapping) Keys() []string {
	keys := make([]string, 0, len(m.Usage))
	for k := range m.Usage {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	out := NewMapping(m.NumPorts)
	for k, u := range m.Usage {
		out.Usage[k] = u.Clone()
	}
	return out
}

// AllPorts returns the set of all ports of the mapping.
func (m *Mapping) AllPorts() PortSet {
	return PortSet(1<<uint(m.NumPorts)) - 1
}

// Validate checks structural sanity: non-negative counts, port sets
// within range, and non-empty port sets for µops with positive count.
func (m *Mapping) Validate() error {
	if m.NumPorts <= 0 || m.NumPorts > MaxPorts {
		return fmt.Errorf("portmodel: invalid port count %d", m.NumPorts)
	}
	all := m.AllPorts()
	for k, u := range m.Usage {
		for _, x := range u {
			if x.Count < 0 {
				return fmt.Errorf("portmodel: %s has negative µop count", k)
			}
			if x.Count > 0 && x.Ports == 0 {
				return fmt.Errorf("portmodel: %s has µop with empty port set", k)
			}
			if !x.Ports.SubsetOf(all) {
				return fmt.Errorf("portmodel: %s uses port outside [0,%d)", k, m.NumPorts)
			}
		}
	}
	return nil
}

// uopMass flattens an experiment under a mapping into per-port-set
// masses: for each distinct port set, the total number of µops
// confined to it. Unknown instructions yield an error.
func (m *Mapping) uopMass(e Experiment) (map[PortSet]float64, error) {
	mass := make(map[PortSet]float64)
	for key, n := range e {
		if n == 0 {
			continue
		}
		if n < 0 {
			return nil, fmt.Errorf("portmodel: negative count for %q", key)
		}
		u, ok := m.Usage[key]
		if !ok {
			return nil, fmt.Errorf("portmodel: no usage known for %q", key)
		}
		for _, x := range u {
			mass[x.Ports] += float64(n * x.Count)
		}
	}
	return mass, nil
}

// InverseThroughput computes the steady-state inverse throughput
// tp^-1(e) of the experiment under the mapping: the optimal objective
// of the LP from Section 2.2, via the exact bottleneck-set formula.
// The result is in cycles per experiment iteration.
func (m *Mapping) InverseThroughput(e Experiment) (float64, error) {
	mass, err := m.uopMass(e)
	if err != nil {
		return 0, err
	}
	_, v := Bottleneck(mass)
	return v, nil
}

// Bottleneck evaluates max over non-empty Q of mass(Q)/|Q| for
// per-port-set µop masses and returns a maximizing set together with
// the value. It is the single shared core of InverseThroughput,
// InverseThroughputBounded, BottleneckWitness, and the simulator's
// port-time model. To stay subexponential in common cases it
// enumerates only subsets of the union of occurring port sets; ports
// outside that union can never be a bottleneck. Ties are broken
// toward the subset with the smallest enumeration index, i.e. the
// numerically smallest PortSet — package Compiled replicates this
// tie-break exactly so both evaluators return identical witnesses.
func Bottleneck(mass map[PortSet]float64) (PortSet, float64) {
	var union PortSet
	for ps, m := range mass {
		if m > 0 {
			union |= ps
		}
	}
	if union == 0 {
		return 0, 0
	}
	var portsBuf [MaxPorts]int
	usedPorts := union.Ports(portsBuf[:])
	n := len(usedPorts)
	bestQ, best := PortSet(0), -1.0
	// Enumerate subsets of the used ports via index masks.
	for idx := 1; idx < 1<<uint(n); idx++ {
		var q PortSet
		for b := 0; b < n; b++ {
			if idx&(1<<uint(b)) != 0 {
				q |= 1 << uint(usedPorts[b])
			}
		}
		total := 0.0
		for ps, v := range mass {
			if ps.SubsetOf(q) {
				total += v
			}
		}
		if v := total / float64(q.Size()); v > best {
			best, bestQ = v, q
		}
	}
	return bestQ, best
}

// IPC returns the instructions-per-cycle of the experiment under the
// mapping, capped at rmax instructions per cycle if rmax > 0 (the
// pipeline bottleneck of Section 3.4).
func (m *Mapping) IPC(e Experiment, rmax float64) (float64, error) {
	inv, err := m.InverseThroughput(e)
	if err != nil {
		return 0, err
	}
	n := float64(e.Len())
	if n == 0 {
		return 0, nil
	}
	if rmax > 0 {
		if lim := n / rmax; inv < lim {
			inv = lim
		}
	}
	if inv == 0 {
		return math.Inf(1), nil
	}
	return n / inv, nil
}

// InverseThroughputBounded is InverseThroughput with the frontend
// bottleneck applied: max(tp^-1(e), |e|/rmax). rmax <= 0 disables the
// bottleneck.
func (m *Mapping) InverseThroughputBounded(e Experiment, rmax float64) (float64, error) {
	inv, err := m.InverseThroughput(e)
	if err != nil {
		return 0, err
	}
	if rmax > 0 {
		if lim := float64(e.Len()) / rmax; inv < lim {
			inv = lim
		}
	}
	return inv, nil
}

// BottleneckWitness returns a port set Q achieving the bottleneck
// maximum for the experiment, together with the value mass(Q)/|Q|.
// It is used to produce explanations and theory lemmas.
func (m *Mapping) BottleneckWitness(e Experiment) (PortSet, float64, error) {
	mass, err := m.uopMass(e)
	if err != nil {
		return 0, 0, err
	}
	q, v := Bottleneck(mass)
	return q, v, nil
}

// PortPermutation applies a permutation of port indices to the
// mapping, returning a new mapping. perm must be a permutation of
// 0..NumPorts-1; port k is renamed to perm[k].
func (m *Mapping) PortPermutation(perm []int) (*Mapping, error) {
	if len(perm) != m.NumPorts {
		return nil, fmt.Errorf("portmodel: permutation length %d != %d ports", len(perm), m.NumPorts)
	}
	seen := make([]bool, m.NumPorts)
	for _, p := range perm {
		if p < 0 || p >= m.NumPorts || seen[p] {
			return nil, fmt.Errorf("portmodel: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	out := NewMapping(m.NumPorts)
	for key, u := range m.Usage {
		nu := make(Usage, 0, len(u))
		for _, x := range u {
			var ps PortSet
			for k := 0; k < m.NumPorts; k++ {
				if x.Ports.Has(k) {
					ps |= 1 << uint(perm[k])
				}
			}
			nu = append(nu, Uop{Ports: ps, Count: x.Count})
		}
		out.Usage[key] = nu.Normalize()
	}
	return out, nil
}

// Isomorphic reports whether two mappings over the same instruction
// keys are equal up to a permutation of ports. Mappings that are
// isomorphic produce identical throughputs for every experiment and
// are therefore indistinguishable by measurements.
func (m *Mapping) Isomorphic(other *Mapping) bool {
	if m.NumPorts != other.NumPorts || len(m.Usage) != len(other.Usage) {
		return false
	}
	for k := range m.Usage {
		if _, ok := other.Usage[k]; !ok {
			return false
		}
	}
	// Prune with per-port column signatures: port k of m can only be
	// renamed to port j of other if the multiset of µops touching k in
	// m equals the multiset of µops touching j in other.
	sigM := portSignatures(m)
	sigO := portSignatures(other)
	allowed := make([][]bool, m.NumPorts)
	for k := 0; k < m.NumPorts; k++ {
		allowed[k] = make([]bool, m.NumPorts)
		for j := 0; j < m.NumPorts; j++ {
			allowed[k][j] = sigM[k] == sigO[j]
		}
	}
	perm := make([]int, m.NumPorts)
	used := make([]bool, m.NumPorts)
	return permuteMatch(m, other, perm, used, allowed, 0)
}

// portSignatures computes, for each port, a canonical string over the
// (key, count, set size) triples of µops admitting that port.
func portSignatures(m *Mapping) []string {
	sigs := make([]string, m.NumPorts)
	parts := make([][]string, m.NumPorts)
	for _, key := range m.Keys() {
		for _, x := range m.Usage[key] {
			for k := 0; k < m.NumPorts; k++ {
				if x.Ports.Has(k) {
					parts[k] = append(parts[k], fmt.Sprintf("%s/%d/%d", key, x.Count, x.Ports.Size()))
				}
			}
		}
	}
	for k := range parts {
		sort.Strings(parts[k])
		sigs[k] = strings.Join(parts[k], ";")
	}
	return sigs
}

func permuteMatch(m, other *Mapping, perm []int, used []bool, allowed [][]bool, k int) bool {
	if k == len(perm) {
		p, err := m.PortPermutation(perm)
		if err != nil {
			return false
		}
		for key, u := range p.Usage {
			if !u.Equal(other.Usage[key]) {
				return false
			}
		}
		return true
	}
	for j := 0; j < len(perm); j++ {
		if used[j] || !allowed[k][j] {
			continue
		}
		perm[k], used[j] = j, true
		if permuteMatch(m, other, perm, used, allowed, k+1) {
			return true
		}
		used[j] = false
	}
	return false
}

// String renders the mapping sorted by instruction key.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "port mapping over %d ports:\n", m.NumPorts)
	for _, k := range m.Keys() {
		fmt.Fprintf(&b, "  %-40s %s\n", k, m.Usage[k])
	}
	return b.String()
}
