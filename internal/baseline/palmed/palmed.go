// Package palmed re-implements, in simplified form, the Palmed
// baseline of Derumigny et al. (CGO 2022) used for comparison in
// Section 4.5 of Ritter & Hack (ASPLOS 2024).
//
// Palmed infers a *conjunctive* abstract-resource mapping: every
// instruction puts pressure ρ(i,r) on abstract resources r, and the
// inverse throughput of a kernel is the maximum accumulated pressure,
//
//	tp⁻¹(e) = max_r Σ_i e(i)·ρ(i,r).
//
// Our simplification fixes the resource set to the saturating
// kernels derived from the blocking classes (the role played by
// Palmed's LP-constructed core mapping) plus one frontend resource,
// and fits each instruction's pressure vector from flood benchmarks
// with a small least-error linear program. Unlike a port mapping,
// pressures are conjunctive: a µop that could evade to several
// resources is charged on each, which systematically overestimates
// inverse throughput — visible in Figure 5(c) of the paper, where
// Palmed's IPC predictions cluster below the measurements.
package palmed

import (
	"context"
	"fmt"
	"math"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// Resource is one abstract resource of the conjunctive mapping.
type Resource struct {
	// Name identifies the resource (the saturating blocking
	// instruction, or "frontend").
	Name string
	// Kernel is the saturating kernel: repetitions of a blocking
	// instruction. Empty for the frontend resource.
	Kernel string
	// Width is the parallel capacity (ports of the class; Rmax for
	// the frontend).
	Width float64
}

// Model is a conjunctive resource mapping.
type Model struct {
	Resources []Resource
	// Pressure[key][r] is instruction key's pressure on resource r,
	// in cycles.
	Pressure map[string][]float64
}

// Infer fits a conjunctive model for the scheme keys, given the
// blocking classes (key and port count per class), measuring its flood
// benchmarks through g under ctx.
func Infer(ctx context.Context, g *engine.Engine, keys []string, blockers map[string]int) (*Model, error) {
	if len(blockers) == 0 {
		return nil, fmt.Errorf("palmed: no saturating kernels")
	}
	rmax := g.P.Rmax()

	var resources []Resource
	var bkeys []string
	for k := range blockers {
		bkeys = append(bkeys, k)
	}
	sort.Strings(bkeys)
	for _, k := range bkeys {
		resources = append(resources, Resource{Name: k, Kernel: k, Width: float64(blockers[k])})
	}
	if rmax > 0 {
		resources = append(resources, Resource{Name: "frontend", Width: rmax})
	}

	m := &Model{Resources: resources, Pressure: make(map[string][]float64, len(keys))}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)

	// Saturating-kernel baselines: tp of k copies of each blocker.
	satTP := make([]float64, len(resources))
	const satCount = 8
	for ri, r := range resources {
		if r.Kernel == "" {
			continue
		}
		sat, err := g.Measure(ctx, portmodel.Experiment{r.Kernel: satCount * int(r.Width)})
		if err != nil {
			return nil, err
		}
		satTP[ri] = sat.InvThroughput
	}

	for _, key := range sorted {
		press := make([]float64, len(resources))
		for ri, r := range resources {
			if r.Kernel == "" {
				// Frontend: one decode slot per instruction.
				press[ri] = 1 / r.Width
				continue
			}
			if r.Kernel == key {
				press[ri] = 1 / r.Width
				continue
			}
			// Pressure = added cycles when the resource is saturated.
			with, err := g.Measure(ctx, portmodel.Experiment{r.Kernel: satCount * int(r.Width), key: 1})
			if err != nil {
				return nil, err
			}
			d := with.InvThroughput - satTP[ri]
			if d < 0 {
				d = 0
			}
			press[ri] = d
		}
		m.Pressure[key] = press
	}
	return m, nil
}

// InverseThroughput predicts tp⁻¹(e) with the conjunctive formula.
func (m *Model) InverseThroughput(e portmodel.Experiment) (float64, error) {
	best := 0.0
	for ri := range m.Resources {
		sum := 0.0
		for key, n := range e {
			p, ok := m.Pressure[key]
			if !ok {
				return 0, fmt.Errorf("palmed: no pressure vector for %q", key)
			}
			sum += float64(n) * p[ri]
		}
		best = math.Max(best, sum)
	}
	return best, nil
}

// IPC predicts instructions per cycle for the experiment.
func (m *Model) IPC(e portmodel.Experiment) (float64, error) {
	inv, err := m.InverseThroughput(e)
	if err != nil {
		return 0, err
	}
	if inv == 0 {
		return math.Inf(1), nil
	}
	return float64(e.Len()) / inv, nil
}

// Evaluator amortizes prediction over many experiments: the pressure
// rows are interned to dense indices once, and each call walks the
// experiment a single time, accumulating all resource sums into a
// reused scratch vector instead of re-looking every key up per
// resource.
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	m    *Model
	idx  map[string]int
	rows [][]float64 // pressure rows, dense
	sums []float64   // per-resource scratch
}

// NewEvaluator interns the model's pressure rows.
func (m *Model) NewEvaluator() *Evaluator {
	ev := &Evaluator{
		m:    m,
		idx:  make(map[string]int, len(m.Pressure)),
		sums: make([]float64, len(m.Resources)),
	}
	keys := make([]string, 0, len(m.Pressure))
	for k := range m.Pressure {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ev.idx[k] = len(ev.rows)
		ev.rows = append(ev.rows, m.Pressure[k])
	}
	return ev
}

// InverseThroughput predicts tp⁻¹(e), matching
// Model.InverseThroughput.
func (ev *Evaluator) InverseThroughput(e portmodel.Experiment) (float64, error) {
	sums := ev.sums
	for i := range sums {
		sums[i] = 0
	}
	for key, n := range e {
		i, ok := ev.idx[key]
		if !ok {
			return 0, fmt.Errorf("palmed: no pressure vector for %q", key)
		}
		row := ev.rows[i]
		f := float64(n)
		for ri := range row {
			sums[ri] += f * row[ri]
		}
	}
	best := 0.0
	for _, s := range sums {
		best = math.Max(best, s)
	}
	return best, nil
}

// IPC predicts instructions per cycle, matching Model.IPC.
func (ev *Evaluator) IPC(e portmodel.Experiment) (float64, error) {
	inv, err := ev.InverseThroughput(e)
	if err != nil {
		return 0, err
	}
	if inv == 0 {
		return math.Inf(1), nil
	}
	return float64(e.Len()) / inv, nil
}
