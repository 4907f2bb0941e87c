package lp

import (
	"fmt"

	"zenport/internal/portmodel"
)

// InverseThroughput solves the port-mapping throughput LP of Section
// 2.2 of the paper directly with the simplex solver:
//
//	min t
//	s.t. (A) sum_k x_uk = mass(u)           for all µops u
//	     (B) sum_u x_uk = p_k               for all ports k
//	     (C) p_k <= t                       for all ports k
//	     (D) x_uk >= 0
//	     (E) x_uk = 0 if port k not admissible for u
//
// It is an independent test oracle for the combinatorial evaluator in
// portmodel (Mapping.InverseThroughput); property and fuzz tests
// assert both agree on random mappings and experiments.
func InverseThroughput(m *portmodel.Mapping, e portmodel.Experiment) (float64, error) {
	// Collect µop masses (merged by port set, like the evaluator).
	type uop struct {
		ports portmodel.PortSet
		mass  float64
	}
	merged := make(map[portmodel.PortSet]float64)
	for key, n := range e {
		if n == 0 {
			continue
		}
		u, ok := m.Get(key)
		if !ok {
			return 0, fmt.Errorf("lp: no usage known for %q", key)
		}
		for _, x := range u {
			merged[x.Ports] += float64(n * x.Count)
		}
	}
	uops := make([]uop, 0, len(merged))
	for ps, mass := range merged {
		if mass > 0 {
			uops = append(uops, uop{ports: ps, mass: mass})
		}
	}
	if len(uops) == 0 {
		return 0, nil
	}

	p := NewProblem()
	tVar := p.AddVariable(1, "t")
	// x[u][k] only for admissible ports (constraint E by omission).
	xs := make([]map[int]int, len(uops))
	for ui, u := range uops {
		xs[ui] = make(map[int]int)
		for _, k := range u.ports.Ports() {
			xs[ui][k] = p.AddVariable(0, fmt.Sprintf("x_%d_%d", ui, k))
		}
	}
	// (A) all mass distributed.
	for ui, u := range uops {
		vars := make([]int, 0, len(xs[ui]))
		coeffs := make([]float64, 0, len(xs[ui]))
		for _, v := range xs[ui] {
			vars = append(vars, v)
			coeffs = append(coeffs, 1)
		}
		if err := p.AddConstraint(vars, coeffs, EQ, u.mass); err != nil {
			return 0, err
		}
	}
	// (B)+(C) folded: sum_u x_uk - t <= 0 for each port.
	for k := 0; k < m.NumPorts; k++ {
		vars := []int{tVar}
		coeffs := []float64{-1}
		for ui := range uops {
			if v, ok := xs[ui][k]; ok {
				vars = append(vars, v)
				coeffs = append(coeffs, 1)
			}
		}
		if len(vars) == 1 {
			continue
		}
		if err := p.AddConstraint(vars, coeffs, LE, 0); err != nil {
			return 0, err
		}
	}
	switch p.Solve() {
	case Optimal:
		return p.Objective()
	case Infeasible:
		return 0, fmt.Errorf("lp: throughput LP infeasible (bug)")
	default:
		return 0, fmt.Errorf("lp: throughput LP unbounded (bug)")
	}
}
