package smt

import (
	"zenport/internal/portmodel"
)

// Propagator is the compiled theory-propagation state of one solver
// query: the instance's µop structure lowered into a
// portmodel.Compiled evaluator (one scheme per distinct key, one
// packed µop per instance µop) and every measured experiment interned
// once into a dense weight vector with its tolerance precomputed.
//
// Checking a candidate model then costs one SetUopPorts per µop plus
// one allocation-free bottleneck evaluation per experiment — no
// string-keyed maps, no per-call µop-mass rebuild, zero steady-state
// allocations. The find loops construct one Propagator per query and
// also run the uniqueness search's m2 evaluations on its compiled
// form; it is exported for BenchmarkSMTPropagation, which re-checks
// candidate mappings against a fixed experiment set. Results are
// bit-identical to the reference evaluator
// (portmodel.Mapping.InverseThroughputBounded), witnesses included,
// so swapping it into the DPLL(T) loop preserves the exact search
// trajectory and the final mapping.
//
// A Propagator is not safe for concurrent use.
type Propagator struct {
	comp *portmodel.Compiled
	// schemeOf/slotOf locate instance µop u inside the compiled
	// layout: µop slotOf[u] of scheme schemeOf[u].
	schemeOf []int32
	slotOf   []int
	// byUop mirrors the currently loaded candidate port sets.
	byUop []portmodel.PortSet

	exps []MeasuredExp
	vecs [][]int32 // dense weights per experiment
	lens []int     // e.Len() per experiment
	tols []float64 // acceptance tolerance per experiment

	rmax float64

	// violBuf is the reused violation buffer of the find loops.
	violBuf []violation
}

// NewPropagator compiles the instance's µop structure and interns the
// experiments. It fails on experiments mentioning keys outside the
// instance or carrying negative counts, with the reference
// evaluator's error strings; the find loops return that error.
func (in *Instance) NewPropagator(exps []MeasuredExp) (*Propagator, error) {
	keys := in.keys()
	keyIdx := make(map[string]int32, len(keys))
	for i, k := range keys {
		keyIdx[k] = int32(i)
	}
	usages := make([]portmodel.Usage, len(keys))
	p := &Propagator{
		schemeOf: make([]int32, len(in.Uops)),
		slotOf:   make([]int, len(in.Uops)),
		byUop:    make([]portmodel.PortSet, len(in.Uops)),
		exps:     exps,
		rmax:     in.Rmax,
	}
	for u, spec := range in.Uops {
		si := keyIdx[spec.Key]
		p.schemeOf[u] = si
		p.slotOf[u] = len(usages[si])
		usages[si] = append(usages[si], portmodel.Uop{Ports: 0, Count: 1})
	}
	comp, err := portmodel.CompileUsages(in.NumPorts, keys, usages)
	if err != nil {
		return nil, err
	}
	p.comp = comp
	p.vecs = make([][]int32, len(exps))
	p.lens = make([]int, len(exps))
	p.tols = make([]float64, len(exps))
	for i, me := range exps {
		vec, total, err := comp.WeightVector(me.Exp, nil)
		if err != nil {
			return nil, err
		}
		p.vecs[i] = vec
		p.lens[i] = total
		p.tols[i] = (in.Epsilon + me.Slack) * float64(total)
	}
	return p, nil
}

// SetUopPorts loads µop u's candidate port set.
func (p *Propagator) SetUopPorts(u int, ps portmodel.PortSet) {
	p.byUop[u] = ps
	p.comp.SetUop(p.schemeOf[u], p.slotOf[u], ps)
}

// load installs a whole candidate model.
func (p *Propagator) load(byUop []portmodel.PortSet) {
	for u, ps := range byUop {
		p.SetUopPorts(u, ps)
	}
}

// check evaluates every experiment against the loaded candidate and
// returns the violations ("too slow" = model above measurement),
// reusing the propagator's buffer. An empty result means the
// candidate is consistent.
func (p *Propagator) check() []violation {
	out := p.violBuf[:0]
	for i := range p.vecs {
		t := p.comp.InverseThroughputBoundedWeights(p.vecs[i], p.lens[i], p.rmax)
		switch {
		case t > p.exps[i].TInv+p.tols[i]:
			out = append(out, violation{idx: i, tooSlow: true})
		case t < p.exps[i].TInv-p.tols[i]:
			out = append(out, violation{idx: i, tooSlow: false})
		}
	}
	p.violBuf = out
	return out
}

// Violations counts the experiments the loaded candidate fails. It
// is the exported benchmark entry point.
func (p *Propagator) Violations() int { return len(p.check()) }

// witness returns the bottleneck witness of experiment i under the
// loaded candidate, bit-identical to Mapping.BottleneckWitness.
func (p *Propagator) witness(i int) portmodel.PortSet {
	q, _ := p.comp.BottleneckWitnessWeights(p.vecs[i])
	return q
}
