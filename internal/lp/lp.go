// Package lp implements a small dense linear-programming solver using
// the two-phase primal simplex method with Bland's anti-cycling rule.
//
// It solves the port-mapping throughput LP of Section 2.2 of Ritter &
// Hack (ASPLOS 2024) directly, as an independent test oracle for the
// exact bottleneck-set evaluator in package portmodel. No production
// path imports it: the bottleneck-set formula equals the LP optimum.
//
// The solver handles problems of the form
//
//	minimize   cᵀx
//	subject to Ax {<=,=,>=} b,  x >= 0
//
// Problems are built incrementally with AddVariable / AddConstraint
// and solved with Solve. Sizes here are tiny (tens of variables), so
// no sparse machinery or numerical refinements beyond partial
// tolerance handling are needed.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // <=
	EQ                 // ==
	GE                 // >=
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// ErrNotSolved is returned when accessing results before Solve.
var ErrNotSolved = errors.New("lp: problem not solved")

const eps = 1e-9

// Problem is a linear program under construction. All variables are
// implicitly non-negative.
type Problem struct {
	nvars    int
	obj      []float64 // minimization objective
	rows     [][]float64
	rels     []Relation
	rhs      []float64
	names    []string
	solved   bool
	status   Status
	x        []float64
	objVal   float64
	maximize bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// SetMaximize switches the problem to maximization of the objective.
func (p *Problem) SetMaximize() { p.maximize = true }

// AddVariable adds a non-negative variable with the given objective
// coefficient and returns its index.
func (p *Problem) AddVariable(objCoeff float64, name string) int {
	p.nvars++
	p.obj = append(p.obj, objCoeff)
	p.names = append(p.names, name)
	for i := range p.rows {
		p.rows[i] = append(p.rows[i], 0)
	}
	p.solved = false
	return p.nvars - 1
}

// AddConstraint adds sum(coeffs[i]*x[vars[i]]) rel rhs. vars and
// coeffs must have equal length; repeated variables accumulate.
func (p *Problem) AddConstraint(vars []int, coeffs []float64, rel Relation, rhs float64) error {
	if len(vars) != len(coeffs) {
		return fmt.Errorf("lp: %d vars but %d coeffs", len(vars), len(coeffs))
	}
	row := make([]float64, p.nvars)
	for i, v := range vars {
		if v < 0 || v >= p.nvars {
			return fmt.Errorf("lp: variable index %d out of range", v)
		}
		row[v] += coeffs[i]
	}
	p.rows = append(p.rows, row)
	p.rels = append(p.rels, rel)
	p.rhs = append(p.rhs, rhs)
	p.solved = false
	return nil
}

// Value returns the value of variable v in the optimal solution.
func (p *Problem) Value(v int) (float64, error) {
	if !p.solved || p.status != Optimal {
		return 0, ErrNotSolved
	}
	if v < 0 || v >= p.nvars {
		return 0, fmt.Errorf("lp: variable index %d out of range", v)
	}
	return p.x[v], nil
}

// Objective returns the optimal objective value.
func (p *Problem) Objective() (float64, error) {
	if !p.solved || p.status != Optimal {
		return 0, ErrNotSolved
	}
	return p.objVal, nil
}

// Solve runs two-phase simplex and returns the outcome.
func (p *Problem) Solve() Status {
	n := p.nvars
	mrows := len(p.rows)

	// Standardize: ensure rhs >= 0, add slack/surplus and artificial
	// variables. Column layout: [structural | slack/surplus | artificial].
	type rowSpec struct {
		coeffs []float64
		rhs    float64
		rel    Relation
	}
	rows := make([]rowSpec, mrows)
	for i := range p.rows {
		c := make([]float64, n)
		copy(c, p.rows[i])
		r := rowSpec{coeffs: c, rhs: p.rhs[i], rel: p.rels[i]}
		if r.rhs < 0 {
			for j := range r.coeffs {
				r.coeffs[j] = -r.coeffs[j]
			}
			r.rhs = -r.rhs
			switch r.rel {
			case LE:
				r.rel = GE
			case GE:
				r.rel = LE
			}
		}
		rows[i] = r
	}

	nSlack := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	nArt := 0
	for _, r := range rows {
		if r.rel != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	// Tableau: mrows x (total+1), last column rhs.
	t := make([][]float64, mrows)
	basis := make([]int, mrows)
	slackIdx, artIdx := n, n+nSlack
	artCols := make([]int, 0, nArt)
	for i, r := range rows {
		t[i] = make([]float64, total+1)
		copy(t[i], r.coeffs)
		t[i][total] = r.rhs
		switch r.rel {
		case LE:
			t[i][slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			t[i][slackIdx] = -1
			slackIdx++
			t[i][artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		case EQ:
			t[i][artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		}
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		cost := make([]float64, total)
		for _, c := range artCols {
			cost[c] = 1
		}
		val, ok := simplex(t, basis, cost)
		if !ok || val > eps {
			p.solved, p.status = true, Infeasible
			return Infeasible
		}
		// Drive any artificial variables out of the basis.
		for i, b := range basis {
			if b >= n+nSlack {
				pivoted := false
				for j := 0; j < n+nSlack; j++ {
					if math.Abs(t[i][j]) > eps {
						pivot(t, basis, i, j)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row; harmless.
					_ = i
				}
			}
		}
		// Zero out artificial columns so they are never re-entered.
		for _, c := range artCols {
			for i := range t {
				t[i][c] = 0
			}
		}
	}

	// Phase 2: original objective.
	cost := make([]float64, total)
	for j := 0; j < n; j++ {
		if p.maximize {
			cost[j] = -p.obj[j]
		} else {
			cost[j] = p.obj[j]
		}
	}
	val, ok := simplex(t, basis, cost)
	if !ok {
		p.solved, p.status = true, Unbounded
		return Unbounded
	}
	p.x = make([]float64, n)
	for i, b := range basis {
		if b < n {
			p.x[b] = t[i][total]
		}
	}
	if p.maximize {
		val = -val
	}
	p.objVal = val
	p.solved, p.status = true, Optimal
	return Optimal
}

// simplex minimizes costᵀx over the tableau in place. Returns the
// objective value and false if unbounded. Uses Bland's rule.
func simplex(t [][]float64, basis []int, cost []float64) (float64, bool) {
	m := len(t)
	if m == 0 {
		return 0, true
	}
	total := len(t[0]) - 1
	// Reduced costs maintained directly each iteration (small problems).
	for iter := 0; iter < 10000; iter++ {
		// y = cost of basic variables; reduced cost_j = cost_j - yᵀa_j,
		// computed by eliminating basic columns from the cost row.
		red := make([]float64, total)
		copy(red, cost)
		objRow := 0.0
		for i, b := range basis {
			cb := cost[b]
			if cb == 0 {
				continue
			}
			for j := 0; j < total; j++ {
				red[j] -= cb * t[i][j]
			}
			objRow -= cb * t[i][total]
		}
		// Bland: smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < total; j++ {
			if red[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return -objRow, true
		}
		// Ratio test, Bland tie-break on basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				ratio := t[i][total] / t[i][enter]
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave == -1 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return 0, false // unbounded
		}
		pivot(t, basis, leave, enter)
	}
	return 0, false // cycling safeguard; treated as failure
}

func pivot(t [][]float64, basis []int, row, col int) {
	pv := t[row][col]
	for j := range t[row] {
		t[row][j] /= pv
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := range t[i] {
			t[i][j] -= f * t[row][j]
		}
	}
	basis[row] = col
}
