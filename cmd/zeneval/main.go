// Command zeneval reproduces Figure 5 of Ritter & Hack (ASPLOS
// 2024): it infers a port mapping with the paper's algorithm, trains
// the PMEvo and Palmed baselines on the same simulated Zen+ machine,
// benchmarks random five-instruction basic blocks, and reports IPC
// prediction accuracy (MAPE, Pearson, Kendall τ) plus ASCII heatmaps
// of predicted vs. measured IPC.
//
// Usage:
//
//	zeneval [-blocks N] [-schemes N] [-seed N] [-parallel N] [-timeout D] [-cache-dir DIR] [-resume] [-fast]
//
// With -cache-dir, inference measurements are journaled crash-safe on
// disk and reused by later runs under the same configuration; with
// -resume, the inference phase restarts from its last completed
// pipeline stage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"zenport"
	"zenport/internal/baseline/palmed"
	"zenport/internal/baseline/pmevo"
	"zenport/internal/eval"
	"zenport/internal/isa"
)

// main delegates to run so the deferred persist-store Close (journal
// compaction) runs on every exit path, including signal cancellation.
func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	blocks := flag.Int("blocks", 1000, "number of random basic blocks (paper: 5000)")
	maxKeys := flag.Int("schemes", 0, "limit evaluated schemes (0 = all common covered schemes)")
	seed := flag.Int64("seed", 2600, "random seed")
	parallel := flag.Int("parallel", 0, "measurement worker pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the evaluation after this duration (0 = none)")
	cacheDir := flag.String("cache-dir", "", "crash-safe measurement cache directory (empty = no persistence)")
	resume := flag.Bool("resume", false, "resume an interrupted inference from its checkpoints (requires -cache-dir)")
	fast := flag.Bool("fast", false, "smaller PMEvo budget")
	solverBudget := flag.Uint64("solver-budget", 0, "max CDCL conflicts per solver query during inference (0 = unlimited)")
	maxSlack := flag.Float64("max-slack", 0, "max error-bound relaxation for UNSAT-core recovery during inference (0 = disabled)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()

	if *resume && *cacheDir == "" {
		return fmt.Errorf("-resume requires -cache-dir")
	}

	db := zenport.ZenDB()
	machine := zenport.NewZenMachine(db, zenport.SimConfig{Noise: 0.001, Seed: *seed})
	h := zenport.NewHarness(machine)
	h.Workers = *parallel

	// SIGINT/SIGTERM cancel the whole evaluation; the deferred store
	// Close below still compacts the measurement journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := zenport.DefaultOptions()
	if !*quiet {
		opts.Log = func(f string, a ...any) { log.Printf(f, a...) }
	}
	opts.SolverBudget = zenport.SolverBudget{MaxConflicts: *solverBudget}
	opts.MaxSlack = *maxSlack
	if *cacheDir != "" {
		// Exclusive lock: a second process on the same cache directory
		// fails fast instead of interleaving journal writes.
		lk, err := zenport.LockCacheDir(*cacheDir)
		if err != nil {
			return err
		}
		defer lk.Unlock()
		fp := zenport.RunFingerprint(machine, h.Engine)
		store, err := zenport.OpenCache(*cacheDir, fp)
		if err != nil {
			return fmt.Errorf("opening cache: %w", err)
		}
		if !*quiet {
			store.SetLog(log.Printf)
		}
		defer store.Close()
		if err := store.Attach(h.Engine); err != nil {
			return fmt.Errorf("attaching cache: %w", err)
		}
		ck, err := zenport.NewCheckpointer(*cacheDir, fp)
		if err != nil {
			return fmt.Errorf("opening checkpoints: %w", err)
		}
		opts.Checkpointer = ck
		opts.Resume = *resume
	}
	log.Printf("running inference pipeline...")
	rep, err := zenport.InferContext(ctx, h, zenport.ZenSchemes(db), opts)
	if err != nil {
		return err
	}

	// Evaluation schemes: compiler-common, covered by our mapping,
	// with at least one µop (mirrors the paper's SPEC-derived set).
	var keys []string
	for key := range rep.Final.Usage {
		sp, ok := db.Get(key)
		if !ok || !sp.Scheme.Attr.Has(isa.AttrCommon) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if *maxKeys > 0 && *maxKeys < len(keys) {
		keys = keys[:*maxKeys]
	}
	log.Printf("evaluating on %d common schemes", len(keys))

	// Baselines trained on the same machine.
	pmevoCfg := pmevo.DefaultConfig()
	if *fast {
		pmevoCfg.Population, pmevoCfg.Generations = 30, 40
	}
	log.Printf("training PMEvo (population %d, %d generations)...", pmevoCfg.Population, pmevoCfg.Generations)
	pmevoMap, err := pmevo.Infer(ctx, h.Engine, keys, pmevoCfg)
	if err != nil {
		return err
	}
	blockerPorts := map[string]int{}
	for _, cls := range rep.Classes {
		anomalous := false
		for _, a := range rep.AnomalousBlockers {
			if a == cls.Rep {
				anomalous = true
			}
		}
		if !anomalous {
			blockerPorts[cls.Rep] = cls.PortCount
		}
	}
	log.Printf("fitting Palmed-style conjunctive model...")
	palmedModel, err := palmed.Infer(ctx, h.Engine, keys, blockerPorts)
	if err != nil {
		return err
	}

	log.Printf("sampling %d basic blocks...", *blocks)
	bs, err := eval.SampleBlocks(ctx, h.Engine, keys, *blocks, 5, *seed)
	if err != nil {
		return err
	}

	// Compile each mapping once; the whole block sweep shares the
	// compiled evaluators (predictions are bit-identical to the
	// reference Mapping methods).
	oursComp, err := zenport.CompileMapping(rep.Final, nil)
	if err != nil {
		return fmt.Errorf("compiling the inferred mapping: %w", err)
	}
	pmevoComp, err := zenport.CompileMapping(pmevoMap, nil)
	if err != nil {
		return fmt.Errorf("compiling the PMEvo mapping: %w", err)
	}
	palmedEval := palmedModel.NewEvaluator()
	preds := []eval.Predictor{
		&eval.MappingPredictor{Label: "PMEvo", Compiled: pmevoComp},
		&eval.FuncPredictor{Label: "Palmed", Fn: palmedEval.IPC},
		&eval.MappingPredictor{Label: "Ours", Compiled: oursComp, Rmax: machine.Rmax()},
	}
	results, err := eval.Evaluate(bs, preds, 5.5, 22)
	if err != nil {
		return err
	}

	fmt.Printf("\n== Figure 5(a): IPC prediction accuracy over %d blocks\n", len(bs))
	fmt.Print(eval.FormatTable(results))
	for _, r := range results {
		fmt.Printf("\n== Figure 5: %s predicted (y) vs measured (x) IPC, 0..5.5\n", r.Name)
		fmt.Print(r.Heatmap.Render())
	}
	return nil
}
