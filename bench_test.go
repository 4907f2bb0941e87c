// Benchmarks regenerating the paper's tables and figures (see
// DESIGN.md §4 for the experiment index). Each benchmark runs a
// scaled version of the corresponding experiment and reports
// domain metrics via b.ReportMetric; the cmd/zeninfer and cmd/zeneval
// tools run the full-scale versions.
package zenport_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"zenport"
	"zenport/internal/baseline/palmed"
	"zenport/internal/baseline/pmevo"
	"zenport/internal/baseline/uopsinfo"
	"zenport/internal/engine"
	"zenport/internal/eval"
	"zenport/internal/lp"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
	"zenport/internal/zensim"
)

var benchDB = zenport.ZenDB()

// blockerKeys are the Table 1 representatives plus improper blockers.
var blockerKeys = []string{
	"add GPR[32], GPR[32]", "vpor XMM, XMM, XMM", "vpaddd XMM, XMM, XMM",
	"vminps XMM, XMM, XMM", "vbroadcastss XMM, XMM", "vpaddsw XMM, XMM, XMM",
	"vaddps XMM, XMM, XMM", "mov GPR[32], MEM[32]", "vpslld XMM, XMM, XMM",
	"vpmuldq XMM, XMM, XMM", "imul GPR[32], GPR[32]", "vroundps XMM, XMM, IMM[8]",
	"vmovd XMM, GPR[32]", "mov MEM[32], GPR[32]", "vmovapd MEM[128], XMM",
}

// pipelineKeys extends blockerKeys with co-members, multi-µop and
// problem schemes — the scaled stand-in for the full scheme list.
var pipelineKeys = append(append([]string(nil), blockerKeys...),
	"sub GPR[32], GPR[32]", "vpand XMM, XMM, XMM", "vpaddb XMM, XMM, XMM",
	"vmaxps XMM, XMM, XMM", "vpshufd XMM, XMM, IMM[8]", "vsubps XMM, XMM, XMM",
	"mov GPR[64], MEM[64]", "vpsrld XMM, XMM, XMM",
	"add GPR[32], MEM[32]", "add MEM[32], GPR[32]", "vpaddd YMM, YMM, YMM",
	"mov GPR[64], GPR[64]", "nop", "cmove GPR[32], GPR[32]",
	"vdivps XMM, XMM, XMM", "bsf GPR[64], GPR[64]",
)

func benchSchemes(keys []string) []zenport.Scheme {
	var out []zenport.Scheme
	for _, k := range keys {
		out = append(out, benchDB.MustGet(k).Scheme)
	}
	return out
}

func benchHarness(seed int64) *zenport.Harness {
	m := zenport.NewZenMachine(benchDB, zenport.SimConfig{Noise: 0.001, Seed: seed})
	return zenport.NewHarness(m)
}

// BenchmarkE1E5FullPipeline regenerates the scheme funnel (§4.1–§4.2
// text), Table 1, Table 2, the §4.3 anomaly exclusions, and the §4.4
// characterization on the scaled scheme set.
func BenchmarkE1E5FullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(int64(42 + i))
		rep, err := zenport.Infer(h, benchSchemes(pipelineKeys), zenport.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rep.Classes)), "blocking-classes")
		b.ReportMetric(float64(len(rep.AnomalousBlockers)), "anomalies")
		b.ReportMetric(float64(rep.CEGARRounds), "cegar-rounds")
		b.ReportMetric(float64(rep.Supported()), "covered-schemes")
	}
}

// BenchmarkE4AnomalyUNSAT reproduces the §4.3 imul observation: the
// measured 1.5-cycle mixture admits no port mapping.
func BenchmarkE4AnomalyUNSAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in := &zenport.Instance{
			NumPorts: 10, Rmax: 5, Epsilon: 0.02,
			Uops: []zenport.UopSpec{
				{Key: "add", NumPorts: 4},
				{Key: "imul", NumPorts: 1},
			},
		}
		exps := []zenport.MeasuredExp{
			{Exp: zenport.Exp("add"), TInv: 0.25},
			{Exp: zenport.Exp("imul"), TInv: 1.0},
			{Exp: zenport.Experiment{"add": 4, "imul": 1}, TInv: 1.5},
		}
		if _, err := in.FindMapping(exps); err == nil {
			b.Fatal("expected UNSAT")
		}
	}
}

// benchFigure5 runs the Figure 5 evaluation at the given scale and
// returns the model results (PMEvo, Palmed, Ours).
func benchFigure5(b *testing.B, blocks int) []eval.ModelResult {
	b.Helper()
	h := benchHarness(5)
	rep, err := zenport.Infer(h, benchSchemes(pipelineKeys), zenport.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var keys []string
	for key := range rep.Final.Usage {
		if u, _ := rep.Final.Get(key); len(u) > 0 {
			keys = append(keys, key)
		}
	}
	cfg := pmevo.DefaultConfig()
	cfg.Population, cfg.Generations = 30, 40
	pm, err := pmevo.Infer(context.Background(), h.Engine, keys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	blockers := map[string]int{}
	for _, cls := range rep.Classes {
		ok := true
		for _, a := range rep.AnomalousBlockers {
			if a == cls.Rep {
				ok = false
			}
		}
		if ok {
			blockers[cls.Rep] = cls.PortCount
		}
	}
	pal, err := palmed.Infer(context.Background(), h.Engine, keys, blockers)
	if err != nil {
		b.Fatal(err)
	}
	bs, err := eval.SampleBlocks(context.Background(), h.Engine, keys, blocks, 5, 7)
	if err != nil {
		b.Fatal(err)
	}
	pmComp, err := zenport.CompileMapping(pm, nil)
	if err != nil {
		b.Fatal(err)
	}
	oursComp, err := zenport.CompileMapping(rep.Final, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eval.Evaluate(bs, []eval.Predictor{
		&eval.MappingPredictor{Label: "PMEvo", Compiled: pmComp},
		&eval.FuncPredictor{Label: "Palmed", Fn: pal.IPC},
		&eval.MappingPredictor{Label: "Ours", Compiled: oursComp, Rmax: 5},
	}, 5.5, 22)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE6Figure5Metrics regenerates Figure 5(a): MAPE/PCC/τ for
// PMEvo, Palmed, and our mapping.
func BenchmarkE6Figure5Metrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFigure5(b, 300)
		for _, r := range res {
			b.ReportMetric(r.MAPE*100, r.Name+"-MAPE-%")
		}
		if res[2].MAPE >= res[0].MAPE || res[2].MAPE >= res[1].MAPE {
			b.Fatalf("ours (%.3f) must beat PMEvo (%.3f) and Palmed (%.3f)",
				res[2].MAPE, res[0].MAPE, res[1].MAPE)
		}
	}
}

// BenchmarkE7Figure5Heatmaps regenerates Figure 5(b–d): the
// predicted-vs-measured IPC grids.
func BenchmarkE7Figure5Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFigure5(b, 300)
		for _, r := range res {
			if r.Heatmap.Total() == 0 {
				b.Fatalf("%s heatmap empty", r.Name)
			}
			b.ReportMetric(float64(r.Heatmap.Total()), r.Name+"-samples")
		}
	}
}

// BenchmarkE8ToyThroughput measures the exact LP-equivalent
// throughput evaluator on the Figure 2 example.
func BenchmarkE8ToyThroughput(b *testing.B) {
	m := zenport.NewMapping(2)
	u1, u2 := zenport.MakePortSet(0, 1), zenport.MakePortSet(1)
	m.Set("add", zenport.Usage{{Ports: u1, Count: 1}})
	m.Set("mul", zenport.Usage{{Ports: u2, Count: 1}})
	m.Set("fma", zenport.Usage{{Ports: u1, Count: 2}, {Ports: u2, Count: 1}})
	e := zenport.Experiment{"mul": 2, "fma": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tp, err := m.InverseThroughput(e); err != nil || tp != 3 {
			b.Fatalf("tp=%v err=%v", tp, err)
		}
	}
}

// BenchmarkCompiledThroughput measures the compiled evaluator on the
// same Figure 2 example as BenchmarkE8ToyThroughput: the
// experiment-keyed path (intern, then evaluate) and the dense
// weight-vector path the SMT propagator uses. Both must report
// 0 allocs/op.
func BenchmarkCompiledThroughput(b *testing.B) {
	m := zenport.NewMapping(2)
	u1, u2 := zenport.MakePortSet(0, 1), zenport.MakePortSet(1)
	m.Set("add", zenport.Usage{{Ports: u1, Count: 1}})
	m.Set("mul", zenport.Usage{{Ports: u2, Count: 1}})
	m.Set("fma", zenport.Usage{{Ports: u1, Count: 2}, {Ports: u2, Count: 1}})
	c, err := zenport.CompileMapping(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	e := zenport.Experiment{"mul": 2, "fma": 1}
	b.Run("experiment", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tp, err := c.InverseThroughput(e); err != nil || tp != 3 {
				b.Fatalf("tp=%v err=%v", tp, err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		w, _, err := c.WeightVector(e, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, tp := c.BottleneckWitnessWeights(w); tp != 3 {
				b.Fatalf("tp=%v", tp)
			}
		}
	})
}

// BenchmarkSMTPropagation compares the theory-propagation cost per
// candidate model: the reference path (rebuild the mapping, evaluate
// every experiment through the map-keyed evaluator) against the
// compiled propagator (in-place µop retargeting, dense vectors, zero
// allocations).
func BenchmarkSMTPropagation(b *testing.B) {
	keys := []string{"a", "b", "c", "d", "e", "f"}
	var specs []zenport.UopSpec
	for i, k := range keys {
		specs = append(specs, zenport.UopSpec{Key: k})
		if i%2 == 0 {
			specs = append(specs, zenport.UopSpec{Key: k})
		}
	}
	in := &zenport.Instance{NumPorts: 10, Rmax: 5, Epsilon: 0.02, Uops: specs}
	var exps []zenport.MeasuredExp
	for i, k := range keys {
		exps = append(exps,
			zenport.MeasuredExp{Exp: zenport.Exp(k), TInv: 1},
			zenport.MeasuredExp{Exp: zenport.Experiment{k: 4, keys[(i+1)%len(keys)]: 1}, TInv: 2})
	}
	// Deterministic candidate port sets per iteration, so both legs
	// walk the same sequence of models.
	cand := func(i, u int) portmodel.PortSet {
		return portmodel.PortSet(1)<<uint((i+u)%10) | portmodel.PortSet(1)<<uint((i+2*u+3)%10)
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			usage := make(map[string]portmodel.Usage, len(keys))
			for u, sp := range specs {
				usage[sp.Key] = append(usage[sp.Key], portmodel.Uop{Ports: cand(i, u), Count: 1})
			}
			m := portmodel.NewMapping(10)
			for k, us := range usage {
				m.Set(k, us)
			}
			viol := 0
			for _, me := range exps {
				t, err := m.InverseThroughputBounded(me.Exp, 5)
				if err != nil {
					b.Fatal(err)
				}
				tol := (0.02 + me.Slack) * float64(me.Exp.Len())
				if t > me.TInv+tol || t < me.TInv-tol {
					viol++
				}
			}
			if viol == 0 {
				b.Fatal("expected violations under random candidates")
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		prop, err := in.NewPropagator(exps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := range specs {
				prop.SetUopPorts(u, cand(i, u))
			}
			if prop.Violations() == 0 {
				b.Fatal("expected violations under random candidates")
			}
		}
	})
}

// BenchmarkE9FindOtherToy measures the Figure 4 distinguishing-
// experiment search.
func BenchmarkE9FindOtherToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in := &zenport.Instance{
			NumPorts: 2, Epsilon: 0.02,
			Uops: []zenport.UopSpec{{Key: "iA", NumPorts: 1}, {Key: "iB", NumPorts: 1}},
		}
		exps := []zenport.MeasuredExp{
			{Exp: zenport.Exp("iA"), TInv: 1},
			{Exp: zenport.Exp("iB"), TInv: 1},
		}
		m1, err := in.FindMapping(exps)
		if err != nil {
			b.Fatal(err)
		}
		other, err := in.FindOtherMapping(exps, m1, 2, 4, 50)
		if err != nil || other == nil {
			b.Fatalf("other=%v err=%v", other, err)
		}
	}
}

// BenchmarkFindOtherMapping measures the uniqueness search of a
// converged CEGAR loop over 15 single-µop keys and 10 ports, at the
// campaign's bounds (experiments of at most 3 distinct keys and 5
// instructions, at most 40 mappings examined): the query that ends
// every stage-3 blocker run. The set-up runs the loop against a fixed
// truth mapping until the search finds no distinguishable mapping.
// Such a search rolls back the lemmas it learned, so every iteration
// repeats the same one.
func BenchmarkFindOtherMapping(b *testing.B) {
	const maxDistinct, maxTotal, maxCandidates = 3, 5, 40
	truth := zenport.NewMapping(10)
	in := &zenport.Instance{NumPorts: 10, Epsilon: 0.02}
	var exps []zenport.MeasuredExp
	measure := func(e zenport.Experiment) {
		t, err := truth.InverseThroughput(e)
		if err != nil {
			b.Fatal(err)
		}
		exps = append(exps, zenport.MeasuredExp{Exp: e, TInv: t})
	}
	for i, ports := range [][]int{
		{0, 1, 2, 3}, {4, 5}, {6, 7, 8, 9}, {6, 7}, {8, 9}, {6, 9}, {7, 8}, {6},
		{7}, {8}, {9}, {1}, {2}, {0, 3}, {4},
	} {
		key := fmt.Sprintf("i%02d", i)
		truth.Set(key, zenport.Usage{{Ports: zenport.MakePortSet(ports...), Count: 1}})
		in.Uops = append(in.Uops, zenport.UopSpec{Key: key, NumPorts: len(ports)})
		measure(zenport.Exp(key))
	}
	m1, err := in.FindMapping(exps)
	if err != nil {
		b.Fatal(err)
	}
	rounds := 0
	for ; ; rounds++ {
		other, err := in.FindOtherMapping(exps, m1, maxDistinct, maxTotal, maxCandidates)
		if err != nil {
			b.Fatal(err)
		}
		if other == nil {
			break
		}
		measure(other.Exp)
		if m1, err = in.FindMapping(exps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if other, err := in.FindOtherMapping(exps, m1, maxDistinct, maxTotal, maxCandidates); err != nil || other != nil {
			b.Fatalf("other=%v err=%v; want a repeated search that finds nothing", other, err)
		}
	}
	b.ReportMetric(float64(rounds), "cegar-rounds")
}

// BenchmarkE11UopsInfoBaseline runs the original uops.info algorithm
// against the Intel-like counter mode (§2.3).
func BenchmarkE11UopsInfoBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := zenport.NewZenMachine(benchDB, zenport.SimConfig{
			Noise: -1, PerPortCounters: true, DisableAnomalies: true,
		})
		h := zenport.NewHarness(m)
		res, err := uopsinfo.Infer(context.Background(), h.Engine, blockerKeys)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Blocking)), "port-sets")
	}
}

// BenchmarkE12BackendAblation compares the analytic (LP-exact) and
// cycle-level (greedy scheduler) simulator backends.
func BenchmarkE12BackendAblation(b *testing.B) {
	kernels := [][]string{
		{"add GPR[32], GPR[32]", "add GPR[32], GPR[32]", "vpor XMM, XMM, XMM"},
		{"vpslld XMM, XMM, XMM", "vpor XMM, XMM, XMM", "vpaddd XMM, XMM, XMM"},
	}
	for _, backend := range []zensim.Backend{zensim.Analytic, zensim.Cycle} {
		name := "analytic"
		if backend == zensim.Cycle {
			name = "cycle"
		}
		b.Run(name, func(b *testing.B) {
			m := zenport.NewZenMachine(benchDB, zenport.SimConfig{Noise: -1, Backend: backend})
			for i := 0; i < b.N; i++ {
				for _, k := range kernels {
					if _, err := m.Execute(k, 10); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkE13EpsilonAblation runs the blocking-instruction CEGAR at
// three ε settings (DESIGN.md E13), reporting the rounds needed.
func BenchmarkE13EpsilonAblation(b *testing.B) {
	for _, epsName := range []struct {
		name string
		eps  float64
	}{{"eps0.01", 0.01}, {"eps0.02", 0.02}, {"eps0.05", 0.05}} {
		b.Run(epsName.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := benchHarness(11)
				opts := zenport.DefaultOptions()
				opts.Epsilon = epsName.eps
				rep, err := zenport.Infer(h, benchSchemes(blockerKeys), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.CEGARRounds), "cegar-rounds")
			}
		})
	}
}

// BenchmarkSATSolver measures the CDCL solver on two instances: the
// pigeonhole formula PHP(8,7), and a stage-3-shaped CEGAR sequence at
// the size the campaign's solver queries run.
func BenchmarkSATSolver(b *testing.B) {
	b.Run("php-8-7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewSolver()
			const pigeons, holes = 8, 7
			var x [pigeons][holes]int
			for p := 0; p < pigeons; p++ {
				for h := 0; h < holes; h++ {
					x[p][h] = s.NewVar()
				}
			}
			for p := 0; p < pigeons; p++ {
				cl := make([]sat.Lit, holes)
				for h := 0; h < holes; h++ {
					cl[h] = sat.NewLit(x[p][h], false)
				}
				if err := s.AddClause(cl...); err != nil {
					b.Fatal(err)
				}
			}
			for h := 0; h < holes; h++ {
				for p1 := 0; p1 < pigeons; p1++ {
					for p2 := p1 + 1; p2 < pigeons; p2++ {
						if err := s.AddClause(sat.NewLit(x[p1][h], true), sat.NewLit(x[p2][h], true)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			if r := s.Solve(); r != sat.Unsat {
				b.Fatalf("PHP(8,7) = %v", r)
			}
		}
	})
	b.Run("stage3-cegar", func(b *testing.B) {
		var st sat.Stats
		for i := 0; i < b.N; i++ {
			st = benchStage3CEGAR(b)
		}
		b.ReportMetric(float64(st.Conflicts), "conflicts")
		b.ReportMetric(float64(st.Decisions), "decisions")
	})
}

// benchStage3CEGAR builds a port-mapping query the way package smt
// encodes one — 20 µops × 10 ports membership variables, ExactlyK
// cardinality per µop, lex symmetry chains over adjacent port columns
// (about 2.4k variables in all) and 300 seeded monotone lemmas — then
// runs 100 CEGAR-style rounds, each blocking the port sets three µops
// got in the last model. It returns the solver's counters.
func benchStage3CEGAR(b *testing.B) sat.Stats {
	const nu, np, lemmas, rounds = 20, 10, 300, 100
	r := rand.New(rand.NewSource(7))
	s := sat.NewSolver()
	add := func(ls ...sat.Lit) {
		if err := s.AddClause(ls...); err != nil && err != sat.ErrTrivialUnsat {
			b.Fatal(err)
		}
	}
	m := make([][]sat.Lit, nu)
	for u := range m {
		m[u] = make([]sat.Lit, np)
		for k := range m[u] {
			m[u][k] = sat.NewLit(s.NewVar(), false)
		}
	}
	for u := range m {
		if err := s.AddExactlyK(append([]sat.Lit(nil), m[u]...), 2+u%3); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k+1 < np; k++ {
		var prev sat.Lit = -1
		for u := 0; u < nu; u++ {
			x, y := m[u][k], m[u][k+1]
			if prev < 0 {
				add(x, y.Not())
			} else {
				add(prev.Not(), x, y.Not())
			}
			if u == nu-1 {
				break
			}
			eq := sat.NewLit(s.NewVar(), false)
			if prev >= 0 {
				add(eq.Not(), prev)
			}
			add(eq.Not(), x.Not(), y)
			add(eq.Not(), x, y.Not())
			prev = eq
		}
	}
	for i := 0; i < lemmas; i++ {
		var cl []sat.Lit
		for _, u := range r.Perm(nu)[:2] {
			for _, k := range r.Perm(np)[:2+r.Intn(3)] {
				cl = append(cl, m[u][k])
			}
		}
		add(cl...)
	}
	for round := 0; round < rounds; round++ {
		if s.Solve() != sat.Sat {
			break
		}
		var cl []sat.Lit
		for _, u := range r.Perm(nu)[:3] {
			for k := 0; k < np; k++ {
				if s.Model(m[u][k].Var()) {
					cl = append(cl, m[u][k].Not())
				}
			}
		}
		add(cl...)
	}
	return s.StatsSnapshot()
}

// BenchmarkLPSolver measures the simplex solver on the throughput LP
// of a 10-port mapping.
func BenchmarkLPSolver(b *testing.B) {
	truth := benchDB.Truth()
	e := portmodel.Experiment{
		"add GPR[32], GPR[32]": 4,
		"vpor XMM, XMM, XMM":   4,
		"mov GPR[32], MEM[32]": 2,
		"add MEM[32], GPR[32]": 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.InverseThroughput(truth, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimExecute measures one simulated kernel execution: a
// noise-free five-scheme kernel over ten ports, and the shape stage 4
// runs most (a blocker ×8 plus the scheme under test, interleaved as
// the engine does) with the campaign's measurement noise on.
func BenchmarkSimExecute(b *testing.B) {
	run := func(b *testing.B, noise float64, kernel []string) {
		m := zenport.NewZenMachine(benchDB, zenport.SimConfig{Noise: noise, Seed: 2600})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Execute(kernel, 100); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mixed5-quiet", func(b *testing.B) {
		run(b, -1, []string{
			"add GPR[32], GPR[32]", "vpor XMM, XMM, XMM", "mov GPR[32], MEM[32]",
			"vpaddd XMM, XMM, XMM", "add GPR[32], MEM[32]",
		})
	})
	b.Run("stage4-noisy", func(b *testing.B) {
		run(b, 0.001, engine.KernelOf(zenport.Experiment{
			"vpor XMM, XMM, XMM": 8, "vpaddd XMM, XMM, XMM": 1,
		}))
	})
}

// BenchmarkEngineParallelSweep measures batch measurement throughput
// of the engine at several worker-pool sizes against the sequential
// baseline (workers=1). On multi-core hosts the simulated Execute
// calls scale near-linearly until GOMAXPROCS; results stay
// bit-identical at every setting (see TestPipelineWorkerCountInvariance).
func BenchmarkEngineParallelSweep(b *testing.B) {
	// The stage-4-shaped grid: every pipeline key floods every
	// blocker, plus the flood-only kernels.
	var exps []zenport.Experiment
	for _, key := range pipelineKeys {
		for _, blocker := range blockerKeys {
			if key == blocker {
				continue
			}
			exps = append(exps,
				zenport.Experiment{blocker: 8},
				zenport.Experiment{blocker: 8, key: 1})
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Fresh harness per iteration: a warm cache would
				// answer everything without touching the pool.
				h := benchHarness(2600)
				h.Workers = workers
				b.StartTimer()
				if _, err := h.MeasureBatch(context.Background(), exps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(exps)), "experiments")
		})
	}
}
