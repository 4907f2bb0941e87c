// Package pmevo re-implements the PMEvo baseline of Ritter & Hack
// (PLDI 2020) as used for comparison in Section 4.5 of the ASPLOS
// 2024 paper: an evolutionary algorithm that optimizes candidate port
// mappings to reproduce the throughput of a fixed set of
// microbenchmarks, using only time measurements (no performance
// counters at all).
//
// In contrast to the explainable algorithm of package core, PMEvo's
// results carry no witnesses: a mapping is accepted because it scored
// well on the benchmark set, not because any experiment pins down an
// individual µop. The paper shows (Figure 5) that this costs
// substantial accuracy; this package exists to reproduce that
// comparison.
package pmevo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// Config tunes the evolutionary search. The paper seeds 50,000 random
// mappings and evolves for 59 hours on real hardware; the defaults
// here are scaled to simulator time budgets.
type Config struct {
	// Population is the number of candidate mappings.
	Population int
	// Generations bounds the evolution.
	Generations int
	// MaxUops is the maximum number of distinct µops per
	// instruction.
	MaxUops int
	// PairSamples is the number of random pair benchmarks per
	// instruction used for fitness.
	PairSamples int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns simulator-scaled parameters.
func DefaultConfig() Config {
	return Config{Population: 60, Generations: 120, MaxUops: 2, PairSamples: 2, Seed: 1}
}

// benchmark is one fitness experiment.
type benchmark struct {
	exp  portmodel.Experiment
	tinv float64
}

// Infer evolves a port mapping for the given scheme keys, measuring
// its benchmark set through g. It stops with ctx's error when ctx
// ends: during measurement, or at the next generation.
func Infer(ctx context.Context, g *engine.Engine, keys []string, cfg Config) (*portmodel.Mapping, error) {
	if cfg.Population == 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	numPorts := g.P.NumPorts()
	rmax := g.P.Rmax()

	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)

	// Benchmark set: singletons, homogeneous floods, random pairs.
	var benches []benchmark
	addBench := func(e portmodel.Experiment) error {
		r, err := g.Measure(ctx, e)
		if err != nil {
			return err
		}
		benches = append(benches, benchmark{exp: e, tinv: r.InvThroughput})
		return nil
	}
	for _, k := range sorted {
		if err := addBench(portmodel.Exp(k)); err != nil {
			return nil, err
		}
		if err := addBench(portmodel.Experiment{k: 4}); err != nil {
			return nil, err
		}
		for s := 0; s < cfg.PairSamples; s++ {
			other := sorted[rng.Intn(len(sorted))]
			if other == k {
				continue
			}
			if err := addBench(portmodel.Experiment{k: 2, other: 2}); err != nil {
				return nil, err
			}
		}
	}

	// Initial population: random mappings.
	pop := make([]*portmodel.Mapping, cfg.Population)
	for i := range pop {
		pop[i] = randomMapping(rng, sorted, numPorts, cfg.MaxUops)
	}
	fe, err := newFitnessEval(numPorts, sorted, benches, rmax)
	if err != nil {
		return nil, err
	}
	fit := make([]float64, len(pop))
	for i := range pop {
		f, err := fe.fitness(pop[i])
		if err != nil {
			return nil, err
		}
		fit[i] = f
	}

	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Tournament selection + crossover + mutation, elitist.
		bi := argmin(fit)
		next := []*portmodel.Mapping{pop[bi].Clone()}
		nextFit := []float64{fit[bi]}
		for len(next) < len(pop) {
			a := tournament(rng, fit)
			b := tournament(rng, fit)
			child := crossover(rng, pop[a], pop[b], sorted)
			mutate(rng, child, sorted, numPorts, cfg.MaxUops)
			f, err := fe.fitness(child)
			if err != nil {
				return nil, err
			}
			next = append(next, child)
			nextFit = append(nextFit, f)
		}
		pop, fit = next, nextFit
	}
	return pop[argmin(fit)], nil
}

// fitnessEval scores candidates against the fixed benchmark set. The
// benchmark experiments are interned once into dense weight vectors
// over the sorted key universe; each candidate is then compiled over
// that universe and evaluated through the allocation-free
// portmodel.Compiled path, which is bit-identical to the reference
// evaluator.
type fitnessEval struct {
	universe []string
	benches  []benchmark
	rmax     float64
	vecs     [][]int32
	lens     []int
}

// newFitnessEval interns the benchmarks through the compiled
// evaluator's interner. Interning needs only the scheme universe, so
// an evaluator with empty usages over it serves. A benchmark that
// cannot be interned is an error.
func newFitnessEval(numPorts int, universe []string, benches []benchmark, rmax float64) (*fitnessEval, error) {
	c, err := portmodel.CompileUsages(numPorts, universe, make([]portmodel.Usage, len(universe)))
	if err != nil {
		return nil, fmt.Errorf("pmevo: %w", err)
	}
	fe := &fitnessEval{universe: universe, benches: benches, rmax: rmax,
		vecs: make([][]int32, len(benches)), lens: make([]int, len(benches))}
	for i, b := range benches {
		if fe.vecs[i], fe.lens[i], err = c.WeightVector(b.exp, nil); err != nil {
			return nil, fmt.Errorf("pmevo: benchmark %v: %w", b.exp, err)
		}
	}
	return fe, nil
}

// fitness is the mean absolute percentage error over the benchmark
// set (lower is better). A candidate that does not compile is an
// error.
func (fe *fitnessEval) fitness(m *portmodel.Mapping) (float64, error) {
	comp, err := portmodel.CompileMapping(m, fe.universe)
	if err != nil {
		return 0, fmt.Errorf("pmevo: candidate: %w", err)
	}
	sum := 0.0
	for i, vec := range fe.vecs {
		pred := comp.InverseThroughputBoundedWeights(vec, fe.lens[i], fe.rmax)
		if t := fe.benches[i].tinv; t > 0 {
			sum += math.Abs(pred-t) / t
		}
	}
	return sum / float64(len(fe.benches)), nil
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

func tournament(rng *rand.Rand, fit []float64) int {
	a, b := rng.Intn(len(fit)), rng.Intn(len(fit))
	if fit[a] <= fit[b] {
		return a
	}
	return b
}

func randomUsage(rng *rand.Rand, numPorts, maxUops int) portmodel.Usage {
	n := 1 + rng.Intn(maxUops)
	var u portmodel.Usage
	for i := 0; i < n; i++ {
		var ps portmodel.PortSet
		for ps == 0 {
			for k := 0; k < numPorts; k++ {
				if rng.Intn(3) == 0 {
					ps |= 1 << uint(k)
				}
			}
		}
		u = append(u, portmodel.Uop{Ports: ps, Count: 1})
	}
	return u.Normalize()
}

func randomMapping(rng *rand.Rand, keys []string, numPorts, maxUops int) *portmodel.Mapping {
	m := portmodel.NewMapping(numPorts)
	for _, k := range keys {
		m.Set(k, randomUsage(rng, numPorts, maxUops))
	}
	return m
}

// crossover picks each instruction's usage from one of the parents.
func crossover(rng *rand.Rand, a, b *portmodel.Mapping, keys []string) *portmodel.Mapping {
	child := portmodel.NewMapping(a.NumPorts)
	for _, k := range keys {
		src := a
		if rng.Intn(2) == 1 {
			src = b
		}
		u, _ := src.Get(k)
		child.Set(k, u)
	}
	return child
}

// mutate perturbs a few instructions: toggling a port bit, or adding/
// removing a µop.
func mutate(rng *rand.Rand, m *portmodel.Mapping, keys []string, numPorts, maxUops int) {
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		key := keys[rng.Intn(len(keys))]
		u, _ := m.Get(key)
		u = u.Clone()
		switch {
		case len(u) == 0 || rng.Intn(8) == 0:
			u = randomUsage(rng, numPorts, maxUops)
		case rng.Intn(8) == 0 && len(u) < maxUops:
			u = append(u, portmodel.Uop{Ports: 1 << uint(rng.Intn(numPorts)), Count: 1})
		case rng.Intn(8) == 0 && len(u) > 1:
			u = u[:len(u)-1]
		default:
			j := rng.Intn(len(u))
			ps := u[j].Ports ^ (1 << uint(rng.Intn(numPorts)))
			if ps != 0 {
				u[j].Ports = ps
			}
		}
		m.Set(key, u)
	}
}
