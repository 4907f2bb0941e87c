package core

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/portmodel"
	"zenport/internal/sat"
	"zenport/internal/smt"
	"zenport/internal/zen"
	"zenport/internal/zensim"
)

// forEachExperiment enumerates experiments over the keys with total
// size up to maxTotal and at most maxDistinct distinct instructions.
func forEachExperiment(keys []string, maxTotal, maxDistinct int, f func(portmodel.Experiment)) {
	e := make(portmodel.Experiment)
	var rec func(start, remaining, distinct int)
	rec = func(start, remaining, distinct int) {
		if len(e) > 0 {
			f(e)
		}
		if start >= len(keys) || distinct == 0 || remaining == 0 {
			return
		}
		for i := start; i < len(keys); i++ {
			for c := 1; c <= remaining; c++ {
				e[keys[i]] = c
				rec(i+1, remaining-c, distinct-1)
				delete(e, keys[i])
			}
		}
	}
	rec(0, maxTotal, maxDistinct)
}

// newZenPipeline builds a pipeline over the simulated Zen+ machine.
func newZenPipeline(t *testing.T, schemes []isa.Scheme, seed int64) (*Pipeline, *zen.DB) {
	t.Helper()
	db := zen.Build()
	m := zensim.NewMachine(db, zensim.Config{Noise: 0.001, Seed: seed})
	h := engine.New(m)
	opts := DefaultOptions()
	opts.Log = t.Logf
	return NewPipeline(h, schemes, opts), db
}

// allSchemes extracts the isa.Scheme list from the database.
func allSchemes(db *zen.DB) []isa.Scheme {
	var out []isa.Scheme
	for _, sp := range db.Specs() {
		out = append(out, sp.Scheme)
	}
	return out
}

// blockingSubset returns a compact scheme set that still contains all
// 13 blocking classes, the improper blockers, the anomaly cases, and
// a few multi-µop schemes — enough to exercise every pipeline stage
// quickly.
func blockingSubset(db *zen.DB) []isa.Scheme {
	keys := []string{
		// Table 1 representatives.
		"add GPR[32], GPR[32]",
		"vpor XMM, XMM, XMM",
		"vpaddd XMM, XMM, XMM",
		"vminps XMM, XMM, XMM",
		"vbroadcastss XMM, XMM",
		"vpaddsw XMM, XMM, XMM",
		"vaddps XMM, XMM, XMM",
		"mov GPR[32], MEM[32]",
		"vpslld XMM, XMM, XMM",
		"vpmuldq XMM, XMM, XMM",
		"imul GPR[32], GPR[32]",
		"vroundps XMM, XMM, IMM[8]",
		"vmovd XMM, GPR[32]",
		// Class co-members.
		"sub GPR[32], GPR[32]",
		"vpand XMM, XMM, XMM",
		"vpaddb XMM, XMM, XMM",
		"vmaxps XMM, XMM, XMM",
		"vpshufd XMM, XMM, IMM[8]",
		"vpsubsb XMM, XMM, XMM",
		"vsubps XMM, XMM, XMM",
		"mov GPR[64], MEM[64]",
		"vpsrld XMM, XMM, XMM",
		"vpmuludq XMM, XMM, XMM",
		"imul GPR[64], GPR[64]",
		"vroundpd XMM, XMM, IMM[8]",
		"vmovq XMM, GPR[64]",
		// Improper blockers.
		"mov MEM[32], GPR[32]",
		"vmovapd MEM[128], XMM",
		// Multi-µop schemes for stage 4.
		"add GPR[32], MEM[32]",
		"add MEM[32], GPR[32]",
		"add MEM[64], GPR[64]",
		"vpaddd YMM, YMM, YMM",
		"vpaddd XMM, XMM, MEM[128]",
		"vpor YMM, YMM, YMM",
		"mov MEM[64], GPR[64]",
		"vmovaps MEM[128], XMM",
		// No-port and problem schemes.
		"mov GPR[64], GPR[64]",
		"nop",
		"mov GPR[64], IMM[64]",
		"vdivps XMM, XMM, XMM",
		"cmove GPR[32], GPR[32]",
		"vfmadd132ps XMM, XMM, XMM",
		"bsf GPR[64], GPR[64]",
		"vphaddw XMM, XMM, XMM",
		// Up-front exclusions.
		"jmp IMM[32]",
		"syscall",
		"div GPR[32]",
	}
	var out []isa.Scheme
	for _, k := range keys {
		out = append(out, db.MustGet(k).Scheme)
	}
	return out
}

func TestPipelineOnBlockingSubset(t *testing.T) {
	db := zen.Build()
	p, _ := newZenPipeline(t, blockingSubset(db), 42)
	rep, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Up-front exclusions.
	for key, want := range map[string]ExclusionReason{
		"jmp IMM[32]": ExclControlFlow,
		"syscall":     ExclSystem,
		"div GPR[32]": ExclInputDependent,
	} {
		if rep.Excluded[key] != want {
			t.Errorf("%s: excluded as %q, want %q", key, rep.Excluded[key], want)
		}
	}

	// §4.1.2 exclusions.
	if rep.Excluded["vdivps XMM, XMM, XMM"] != ExclIrregularTP {
		t.Errorf("vdivps: %q, want irregular throughput", rep.Excluded["vdivps XMM, XMM, XMM"])
	}
	if rep.Excluded["mov GPR[64], IMM[64]"] != ExclUnstableAlone {
		t.Errorf("mov r64,imm64: %q, want unstable alone", rep.Excluded["mov GPR[64], IMM[64]"])
	}

	// No-port schemes.
	for _, key := range []string{"mov GPR[64], GPR[64]", "nop"} {
		if !rep.Info[key].NoPorts {
			t.Errorf("%s: not detected as no-port", key)
		}
		if u, ok := rep.Final.Get(key); !ok || len(u) != 0 {
			t.Errorf("%s: final usage %v, want empty", key, u)
		}
	}

	// §4.2 exclusions.
	if rep.Excluded["cmove GPR[32], GPR[32]"] != ExclUnstablePaired {
		t.Errorf("cmov: %q, want unstable when paired", rep.Excluded["cmove GPR[32], GPR[32]"])
	}
	if rep.Excluded["vfmadd132ps XMM, XMM, XMM"] != ExclUnstablePaired {
		t.Errorf("fma: %q, want unstable when paired", rep.Excluded["vfmadd132ps XMM, XMM, XMM"])
	}

	// 13 blocking classes (Table 1).
	if len(rep.Classes) != 13 {
		for _, c := range rep.Classes {
			t.Logf("class: %s (%d ports, %d members)", c.Rep, c.PortCount, len(c.Members))
		}
		t.Fatalf("found %d blocking classes, want 13", len(rep.Classes))
	}
	classByRep := map[string]*BlockClass{}
	for i := range rep.Classes {
		classByRep[rep.Classes[i].Rep] = &rep.Classes[i]
	}
	for rep2, members := range map[string]int{
		"add GPR[32], GPR[32]":  2,
		"vpor XMM, XMM, XMM":    2,
		"mov GPR[32], MEM[32]":  2,
		"imul GPR[32], GPR[32]": 2,
	} {
		cls, ok := classByRep[rep2]
		if !ok {
			t.Errorf("missing class %s", rep2)
			continue
		}
		if len(cls.Members) != members {
			t.Errorf("class %s has %d members, want %d: %v", rep2, len(cls.Members), members, cls.Members)
		}
	}

	// §4.3 anomalies: imul, vpmuldq, vmovd must be excluded.
	anom := map[string]bool{}
	for _, a := range rep.AnomalousBlockers {
		anom[a] = true
	}
	for _, want := range []string{"imul GPR[32], GPR[32]", "vpmuldq XMM, XMM, XMM", "vmovd XMM, GPR[32]"} {
		if !anom[want] {
			t.Errorf("anomalous blocker %s not excluded (got %v)", want, rep.AnomalousBlockers)
		}
	}

	// Table 2: under the 5-IPC bottleneck the blocker mapping is not
	// unique (§4.3: "[6,7,8,9]" vs "[0,6,7,8]" variants are
	// indistinguishable), so we check observational equivalence: the
	// inferred mapping must predict the same bounded throughput as
	// the ground truth for every experiment of up to 5 instructions
	// over up to 3 distinct blockers — the same space Algorithm 2
	// explored.
	truth := portmodel.NewMapping(10)
	var blockerKeys []string
	for key := range rep.BlockerMapping.Usage {
		truth.Set(key, db.MustGet(key).Uops)
		blockerKeys = append(blockerKeys, key)
	}
	sort.Strings(blockerKeys)
	mismatches := 0
	forEachExperiment(blockerKeys, 5, 3, func(e portmodel.Experiment) {
		ti, err1 := rep.BlockerMapping.InverseThroughputBounded(e, 5)
		tt, err2 := truth.InverseThroughputBounded(e, 5)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval %v: %v %v", e, err1, err2)
		}
		if d := ti - tt; d > 2*0.02*float64(e.Len()) || d < -2*0.02*float64(e.Len()) {
			if mismatches < 5 {
				t.Errorf("observational mismatch on %v: inferred %v, truth %v", e, ti, tt)
			}
			mismatches++
		}
	})
	if mismatches > 0 {
		t.Errorf("%d observational mismatches", mismatches)
	}

	// Structural facts that ARE forced by size-≤5 experiments:
	// the FP class hierarchy and the shared store µop.
	ports := func(key string) portmodel.PortSet {
		u, ok := rep.BlockerMapping.Get(key)
		if !ok || len(u) == 0 {
			t.Fatalf("no usage for %s", key)
		}
		return u[0].Ports
	}
	if !ports("vminps XMM, XMM, XMM").SubsetOf(ports("vpaddd XMM, XMM, XMM")) {
		t.Error("vminps ⊄ vpaddd class")
	}
	if !ports("vpaddd XMM, XMM, XMM").SubsetOf(ports("vpor XMM, XMM, XMM")) {
		t.Error("vpaddd ⊄ vpor class")
	}
	if !ports("vpslld XMM, XMM, XMM").SubsetOf(ports("vbroadcastss XMM, XMM")) {
		t.Error("vpslld port not in vbroadcastss class")
	}
	if !ports("vroundps XMM, XMM, IMM[8]").SubsetOf(ports("vaddps XMM, XMM, XMM")) {
		t.Error("vroundps port not in vaddps class")
	}
	// Both improper blockers share the store µop (Table 2: [5] + …).
	movStore, _ := rep.BlockerMapping.Get("mov MEM[32], GPR[32]")
	vmovStore, _ := rep.BlockerMapping.Get("vmovapd MEM[128], XMM")
	if len(movStore) < 1 || len(vmovStore) < 1 {
		t.Fatal("improper blockers missing from mapping")
	}
	shared := false
	for _, a := range movStore {
		for _, b := range vmovStore {
			if a.Ports == b.Ports && a.Ports.Size() == 1 {
				shared = true
			}
		}
	}
	if !shared {
		t.Errorf("no shared single-port store µop: mov=%v vmovapd=%v", movStore, vmovStore)
	}

	// Stage 4 regular patterns (§4.4): memory forms add a load µop;
	// 256-bit forms double the µops; RMW forms add store (+AGU).
	checkUsage := func(key string, wantTotal int) {
		t.Helper()
		u, ok := rep.Characterized[key]
		if !ok {
			t.Errorf("%s: not characterized (excluded: %q)", key, rep.Excluded[key])
			return
		}
		if u.TotalUops() != wantTotal {
			t.Errorf("%s: %v (%d µops), want %d", key, u, u.TotalUops(), wantTotal)
		}
	}
	checkUsage("add GPR[32], MEM[32]", 2)
	checkUsage("vpaddd YMM, YMM, YMM", 2)
	checkUsage("vpaddd XMM, XMM, MEM[128]", 2)
	checkUsage("add MEM[64], GPR[64]", 2)
	checkUsage("add MEM[32], GPR[32]", 3)

	// The final mapping predicts throughputs of fresh kernels.
	e := portmodel.Experiment{"add GPR[32], MEM[32]": 2, "vpaddd XMM, XMM, XMM": 2}
	tp, err := rep.Final.InverseThroughputBounded(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	tTrue, err := db.Truth().InverseThroughputBounded(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tp - tTrue; diff > 0.1 || diff < -0.1 {
		t.Errorf("final mapping predicts %v for %v, truth %v", tp, e, tTrue)
	}
}

// goldenSubset is a reduced scheme set for the parallel-determinism
// golden test: six blocking classes, one improper blocker, multi-µop
// schemes, and a no-port scheme — every stage runs, but the CEGAR
// search stays small enough to repeat per worker count.
func goldenSubset(db *zen.DB) []isa.Scheme {
	keys := []string{
		"add GPR[32], GPR[32]",
		"vpor XMM, XMM, XMM",
		"vpaddd XMM, XMM, XMM",
		"vminps XMM, XMM, XMM",
		"mov GPR[32], MEM[32]",
		"vpslld XMM, XMM, XMM",
		"sub GPR[32], GPR[32]",
		"vpand XMM, XMM, XMM",
		"mov MEM[32], GPR[32]",
		"vmovapd MEM[128], XMM",
		"add GPR[32], MEM[32]",
		"add MEM[32], GPR[32]",
		"vpor YMM, YMM, YMM",
		"nop",
		"mov GPR[64], GPR[64]",
	}
	var out []isa.Scheme
	for _, k := range keys {
		out = append(out, db.MustGet(k).Scheme)
	}
	return out
}

// anomalySubset is goldenSubset plus one §4.3 anomaly, so the model
// turns UNSAT and stage 3 runs the culprit isolation on the workers.
func anomalySubset(db *zen.DB) []isa.Scheme {
	return append(goldenSubset(db), db.MustGet("imul GPR[32], GPR[32]").Scheme)
}

// TestPipelineWorkerCountInvariance is the parallel-determinism golden
// test: the complete pipeline, run with 1, 0 (GOMAXPROCS), 4 and 16
// workers on the same seed, must produce a byte-identical final
// mapping JSON — the same artifact zeninfer -out writes — and the same
// anomalous blockers, CEGAR rounds and solver counters. The worker
// count sizes both the measurement pool and the stage-3 isolation
// fan-out, which the anomaly subset reaches. The first run must also
// match absolute pins of the stage-3 trajectory — solver counters,
// CEGAR rounds and anomalous blockers — so a change to the search
// shows here, not only when the campaign benchmark runs.
func TestPipelineWorkerCountInvariance(t *testing.T) {
	db := zen.Build()
	workerSweep := []int{1, 0, 4, 16}
	if raceEnabled {
		workerSweep = []int{1, 0, 4}
	}
	for _, tc := range []struct {
		name      string
		schemes   []isa.Scheme
		anomalous []string
		rounds    int
		solver    smt.QueryStats
	}{
		{"golden", goldenSubset(db), nil, 27, smt.QueryStats{
			Queries: 56, TheoryIterations: 12400, LemmasLearned: 18309,
			Solver: sat.Stats{Propagations: 15324379, Conflicts: 19482, Decisions: 500213, Restarts: 12, Learned: 19237},
		}},
		{"anomaly", anomalySubset(db), []string{"imul GPR[32], GPR[32]"}, 30, smt.QueryStats{
			Queries: 88, TheoryIterations: 8629, LemmasLearned: 25960,
			Solver: sat.Stats{Propagations: 14133595, Conflicts: 47143, Decisions: 441923, Restarts: 156, Learned: 46695},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				mapping   string
				anomalous []string
				rounds    int
				solver    smt.QueryStats
			}
			var golden *outcome
			for _, workers := range workerSweep {
				p, _ := newZenPipeline(t, tc.schemes, 42)
				p.H.Workers = workers
				rep, err := p.RunContext(context.Background())
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				data, err := json.MarshalIndent(rep.Final, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got := &outcome{string(data), rep.AnomalousBlockers, rep.CEGARRounds, rep.Supervision.Solver}
				if golden == nil {
					golden = got
					if rep.Supported() == 0 {
						t.Fatal("golden run characterized nothing")
					}
					if !slices.Equal(got.anomalous, tc.anomalous) {
						t.Errorf("anomalous blockers %v, want %v", got.anomalous, tc.anomalous)
					}
					if got.rounds != tc.rounds {
						t.Errorf("%d CEGAR rounds, want %d", got.rounds, tc.rounds)
					}
					if got.solver != tc.solver {
						t.Errorf("solver telemetry %+v, want %+v", got.solver, tc.solver)
					}
					continue
				}
				if got.mapping != golden.mapping {
					t.Errorf("mapping JSON differs between 1 and %d workers", workers)
				}
				if !slices.Equal(got.anomalous, golden.anomalous) {
					t.Errorf("workers=%d: anomalous blockers %v, want %v", workers, got.anomalous, golden.anomalous)
				}
				if got.rounds != golden.rounds {
					t.Errorf("workers=%d: %d CEGAR rounds, want %d", workers, got.rounds, golden.rounds)
				}
				if got.solver != golden.solver {
					t.Errorf("workers=%d: solver telemetry %+v, want %+v", workers, got.solver, golden.solver)
				}
			}
		})
	}
}

// TestPipelineCancellation: a cancelled context aborts the pipeline
// promptly with an error wrapping context.Canceled.
func TestPipelineCancellation(t *testing.T) {
	db := zen.Build()
	p, _ := newZenPipeline(t, goldenSubset(db), 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
