package portmodel

import (
	"fmt"
	"math"
)

// Compiled is a compiled throughput evaluator: a Mapping lowered onto
// a fixed scheme universe with every string key interned to a dense
// int32 index and every µop packed into a flat array of
// (PortSet, count) pairs. Queries run over dense weight vectors and
// allocate nothing in steady state, which makes the evaluator fit for
// the two hottest loops of the system — the DPLL(T) propagation of
// package smt (one throughput query per experiment per candidate
// model) and the bulk block evaluation of cmd/zeneval.
//
// The evaluation algorithm is the same exact bottleneck-set formula
// as the reference evaluator (Mapping.InverseThroughput): the inverse
// throughput is max over non-empty port sets Q of mass(Q)/|Q|. The
// compiled form computes all 2^|union| masses at once with a
// subset-sum (zeta) transform over the union of occurring ports,
// walking only submasks of that union via the (s-1)&union bit trick —
// O(2^n·n) for n used ports, with no per-subset re-summation. All
// masses are integers represented exactly in float64, so results are
// bit-identical to the reference evaluator, including the witness
// tie-break (numerically smallest PortSet among the maximizers).
//
// Experiment-keyed queries intern the experiment into a scratch weight
// vector and evaluate it; they cache nothing, since a throughput is a
// pure function of the experiment and callers that repeat queries
// (the serving layer's LRU) cache above this type. A Compiled is not
// safe for concurrent use; compile one per goroutine (compilation is
// cheap) or guard it externally.
type Compiled struct {
	numPorts int
	keys     []string         // scheme index -> key
	index    map[string]int32 // key -> scheme index
	start    []int32          // scheme index -> first µop in uops; len = len(keys)+1
	uops     []cuop           // packed µops, grouped by scheme

	// sos is the subset-sum scratch: one float64 per subset of the
	// mapping's ports (8 KiB for the 10-port Zen machine).
	sos []float64
	// touched tracks which scheme weights the current experiment set,
	// so the scratch weight vector can be cleared without a full scan.
	w       []int32
	touched []int32
}

// cuop is one packed µop: admissible ports and multiplicity.
type cuop struct {
	ports PortSet
	count uint8
}

// Evaluation is one experiment's evaluation under a compiled
// mapping: the bottleneck witness, the unbounded inverse throughput
// and the instruction count. Bounded and IPC derive the frontend-
// bounded values from it.
type Evaluation struct {
	Witness PortSet // port set achieving the bottleneck maximum
	Inv     float64 // tp^-1, the pure port-model value
	Total   int     // instruction count of the experiment
}

// Bounded applies the frontend bottleneck: max(tp^-1, total/rmax).
// rmax <= 0 disables the bound.
func (v Evaluation) Bounded(rmax float64) float64 {
	inv := v.Inv
	if rmax > 0 {
		if lim := float64(v.Total) / rmax; inv < lim {
			inv = lim
		}
	}
	return inv
}

// IPC returns instructions per cycle, capped at rmax if rmax > 0,
// matching Mapping.IPC exactly. It is +Inf for an experiment with
// instructions but no µops when rmax does not bound it.
func (v Evaluation) IPC(rmax float64) float64 {
	n := float64(v.Total)
	if n == 0 {
		return 0
	}
	inv := v.Bounded(rmax)
	if inv == 0 {
		return math.Inf(1)
	}
	return n / inv
}

// maxCompiledCount bounds a packed µop multiplicity.
const maxCompiledCount = 255

// CompileMapping compiles a mapping over the given scheme universe.
// A nil universe compiles every key of the mapping. Every universe
// key must have a usage in the mapping.
func CompileMapping(m *Mapping, universe []string) (*Compiled, error) {
	if universe == nil {
		universe = m.Keys()
	}
	usages := make([]Usage, len(universe))
	for i, key := range universe {
		u, ok := m.Usage[key]
		if !ok {
			return nil, fmt.Errorf("portmodel: no usage known for %q", key)
		}
		usages[i] = u
	}
	return CompileUsages(m.NumPorts, universe, usages)
}

// CompileUsages compiles an evaluator directly from parallel key and
// usage slices. µop order within each usage is preserved (not
// normalized), so callers that need a stable per-µop layout — the SMT
// propagator updates individual µop port sets in place — control it.
func CompileUsages(numPorts int, keys []string, usages []Usage) (*Compiled, error) {
	if numPorts <= 0 || numPorts > MaxPorts {
		return nil, fmt.Errorf("portmodel: invalid port count %d", numPorts)
	}
	if len(keys) != len(usages) {
		return nil, fmt.Errorf("portmodel: %d keys but %d usages", len(keys), len(usages))
	}
	all := PortSet(1<<uint(numPorts)) - 1
	c := &Compiled{
		numPorts: numPorts,
		keys:     append([]string(nil), keys...),
		index:    make(map[string]int32, len(keys)),
		start:    make([]int32, len(keys)+1),
		sos:      make([]float64, 1<<uint(numPorts)),
		w:        make([]int32, len(keys)),
		touched:  make([]int32, 0, 8),
	}
	for i, key := range keys {
		if _, dup := c.index[key]; dup {
			return nil, fmt.Errorf("portmodel: duplicate scheme %q in universe", key)
		}
		c.index[key] = int32(i)
		c.start[i] = int32(len(c.uops))
		for _, x := range usages[i] {
			if x.Count < 0 || x.Count > maxCompiledCount {
				return nil, fmt.Errorf("portmodel: %s has µop count %d outside [0,%d]", key, x.Count, maxCompiledCount)
			}
			if !x.Ports.SubsetOf(all) {
				return nil, fmt.Errorf("portmodel: %s uses port outside [0,%d)", key, numPorts)
			}
			c.uops = append(c.uops, cuop{ports: x.Ports, count: uint8(x.Count)})
		}
	}
	c.start[len(keys)] = int32(len(c.uops))
	return c, nil
}

// NumPorts returns the number of execution ports.
func (c *Compiled) NumPorts() int { return c.numPorts }

// Keys returns the interned scheme keys; index i holds the key of
// scheme index i. The slice is shared — do not mutate.
func (c *Compiled) Keys() []string { return c.keys }

// Index returns the dense index of a scheme key.
func (c *Compiled) Index(key string) (int32, bool) {
	i, ok := c.index[key]
	return i, ok
}

// SetUop replaces the port set of the j-th µop of the given scheme
// (in CompileUsages order). It is the SMT propagator's in-place
// retargeting hook: the µop structure of a solver instance is fixed,
// only the candidate port sets change.
func (c *Compiled) SetUop(scheme int32, j int, ports PortSet) {
	c.uops[int(c.start[scheme])+j].ports = ports
}

// WeightVector interns an experiment into a dense weight vector over
// the compiled universe, reusing dst when it has the right length.
// It returns the vector, the total instruction count, and an error
// for unknown keys, negative counts (matching the reference
// evaluator's messages) or counts above math.MaxInt32.
func (c *Compiled) WeightVector(e Experiment, dst []int32) ([]int32, int, error) {
	if len(dst) != len(c.keys) {
		dst = make([]int32, len(c.keys))
	} else {
		clear(dst)
	}
	total, err := c.intern(e, dst)
	return dst, total, err
}

// intern is the single experiment interner: it writes e's counts into
// w, which must be zero at the interned indices, records each written
// index in c.touched, and returns the instruction count. A weight is
// an int32, so a count above math.MaxInt32 is a range error rather
// than a silently truncated weight.
func (c *Compiled) intern(e Experiment, w []int32) (int, error) {
	c.touched = c.touched[:0]
	total := 0
	for key, n := range e {
		if n == 0 {
			continue
		}
		if n < 0 {
			return 0, fmt.Errorf("portmodel: negative count for %q", key)
		}
		if n > math.MaxInt32 {
			return 0, fmt.Errorf("portmodel: count %d for %q exceeds %d", n, key, math.MaxInt32)
		}
		i, ok := c.index[key]
		if !ok {
			return 0, fmt.Errorf("portmodel: no usage known for %q", key)
		}
		w[i] = int32(n)
		c.touched = append(c.touched, i)
		total += n
	}
	return total, nil
}

// evalVec is the allocation-free core: the bottleneck witness and
// value of a dense weight vector. Weights must be non-negative.
func (c *Compiled) evalVec(w []int32) (PortSet, float64) {
	// Pass 1: the union of ports occurring with positive mass. Ports
	// outside it can never be a bottleneck.
	var union PortSet
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		for _, u := range c.uops[c.start[i]:c.start[i+1]] {
			if u.count != 0 {
				union |= u.ports
			}
		}
	}
	if union == 0 {
		return 0, 0
	}
	// Pass 2: per-port-set masses into the subset-sum scratch. Only
	// submasks of the union are touched, so only those are cleared.
	sos := c.sos
	for s := union; ; s = (s - 1) & union {
		sos[s] = 0
		if s == 0 {
			break
		}
	}
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		for _, u := range c.uops[c.start[i]:c.start[i+1]] {
			sos[u.ports] += float64(int(wi) * int(u.count))
		}
	}
	return DenseBottleneck(sos, union)
}

// DenseBottleneck is the bottleneck kernel shared by the compiled
// evaluator and the simulator. On entry sos[q] holds, for every submask
// q of union, the mass of the µops whose port set is exactly q; other
// entries are neither read nor written, and sos must be longer than
// union. It returns the bottleneck max over non-empty q ⊆ union of
// mass(q)/|q| and its witness, leaving sos[q] = mass(q) behind. When
// every mass is an integer, as occupancy-weighted µop counts are, the
// value and the witness are bit-identical to Bottleneck's.
func DenseBottleneck(sos []float64, union PortSet) (PortSet, float64) {
	if union == 0 {
		return 0, 0
	}
	sos = sos[:int(union)+1]
	// Zeta transform over the union's ports: afterwards sos[q] is
	// mass(q), the total mass of µops confined to q.
	for rest := union; rest != 0; rest &= rest - 1 {
		bit := rest & -rest
		for s := union; ; s = (s - 1) & union {
			if s&bit != 0 {
				sos[s] += sos[s&^bit]
			}
			if s == 0 {
				break
			}
		}
	}
	// Maximize mass(q)/|q|. Bottleneck enumerates subsets in ascending
	// compressed-index order and keeps the first maximum; compression
	// is order-preserving, so that winner is the numerically smallest
	// maximizing PortSet — enforce the same tie-break here explicitly
	// (integer masses are exact, so float equality is meaningful).
	bestQ, best := PortSet(0), -1.0
	for s := union; s != 0; s = (s - 1) & union {
		if v := sos[s] / float64(s.Size()); v > best || (v == best && s < bestQ) {
			best, bestQ = v, s
		}
	}
	return bestQ, best
}

// InverseThroughputBoundedWeights applies the frontend bottleneck:
// max(tp^-1, total/rmax), with total the instruction count of the
// experiment (the sum of w). rmax <= 0 disables the bound.
func (c *Compiled) InverseThroughputBoundedWeights(w []int32, total int, rmax float64) float64 {
	_, v := c.evalVec(w)
	return Evaluation{Inv: v, Total: total}.Bounded(rmax)
}

// BottleneckWitnessWeights returns the bottleneck witness and value
// of a dense weight vector with zero allocations.
func (c *Compiled) BottleneckWitnessWeights(w []int32) (PortSet, float64) {
	return c.evalVec(w)
}

// Evaluate interns and evaluates one experiment: its bottleneck
// witness (with the reference evaluator's tie-break), tp^-1 and
// instruction count. It allocates nothing on success: the weight
// scratch and touched list are reused and cleared on every path.
func (c *Compiled) Evaluate(e Experiment) (Evaluation, error) {
	total, err := c.intern(e, c.w)
	var v Evaluation
	if err == nil {
		v.Witness, v.Inv = c.evalVec(c.w)
		v.Total = total
	}
	for _, i := range c.touched {
		c.w[i] = 0
	}
	return v, err
}

// InverseThroughput computes tp^-1(e), bit-identical to the reference
// Mapping.InverseThroughput of the compiled mapping.
func (c *Compiled) InverseThroughput(e Experiment) (float64, error) {
	v, err := c.Evaluate(e)
	return v.Inv, err
}

// InverseThroughputBounded is InverseThroughput with the frontend
// bottleneck applied: max(tp^-1(e), |e|/rmax). rmax <= 0 disables it.
func (c *Compiled) InverseThroughputBounded(e Experiment, rmax float64) (float64, error) {
	v, err := c.Evaluate(e)
	if err != nil {
		return 0, err
	}
	return v.Bounded(rmax), nil
}

// IPC returns instructions per cycle, capped at rmax if rmax > 0,
// matching Mapping.IPC exactly.
func (c *Compiled) IPC(e Experiment, rmax float64) (float64, error) {
	v, err := c.Evaluate(e)
	if err != nil {
		return 0, err
	}
	return v.IPC(rmax), nil
}
