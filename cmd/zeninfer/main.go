// Command zeninfer runs the full port-mapping inference pipeline of
// Ritter & Hack (ASPLOS 2024) against the simulated Zen+ machine and
// prints the paper's artifacts: the scheme funnel (§4.1–§4.2), the
// blocking classes of Table 1, the inferred blocker mapping of
// Table 2, the §4.3 anomaly exclusions, and coverage statistics for
// the final mapping. The mapping can be written to JSON for use with
// zenmap and zeneval.
//
// Usage:
//
//	zeninfer [-seed N] [-noise F] [-parallel N] [-timeout D] [-max-schemes N] [-cache-dir DIR] [-resume] [-chaos] [-chaos-seed N] [-solver-budget N] [-max-slack F] [-out mapping.json] [-witnesses]
//
// Measurements run through the batch engine; -parallel sets the
// worker-pool size (results are byte-identical for every value) and
// -timeout bounds the whole inference.
//
// With -cache-dir, every executed measurement is journaled crash-safe
// on disk and reused by later runs under the same configuration; with
// -resume, an interrupted run additionally restarts from its last
// completed pipeline stage and produces byte-identical output. One
// process owns a cache directory at a time: a second zeninfer pointed
// at a directory in use fails fast.
//
// With -chaos, the machine is wrapped in a deterministic seeded
// fault-injection regime (transient errors, hangs, outlier spikes,
// stuck counters); the run ends with an injection ledger and a
// degradation report listing the measurements that stayed
// low-confidence — no fault class aborts the inference.
//
// -solver-budget bounds every CDCL solver query to that many
// conflicts; exhausted queries degrade the run to a partial mapping
// (unresolved schemes are listed, and a later -resume retries them)
// instead of aborting. -max-slack enables UNSAT-core recovery: when
// the measurements are mutually inconsistent, the minimal conflicting
// experiment set is isolated and its least trustworthy measurements
// are re-measured and relaxed by up to the given error-bound slack.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"zenport"
)

// main delegates to run so deferred cleanup — most importantly the
// persist store's Close, which compacts and closes the journal — runs
// on every exit path. log.Fatal inside the work (the old shape)
// skipped those defers, so a Ctrl-C'd -cache-dir run left its journal
// unflushed.
func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	seed := flag.Int64("seed", 2600, "measurement noise seed")
	noise := flag.Float64("noise", 0.001, "relative cycle-measurement noise (0 disables)")
	maxSchemes := flag.Int("max-schemes", 0, "limit the number of schemes (0 = all)")
	parallel := flag.Int("parallel", 0, "measurement worker pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort inference after this duration (0 = none)")
	cacheDir := flag.String("cache-dir", "", "crash-safe measurement cache directory (empty = no persistence)")
	resume := flag.Bool("resume", false, "resume an interrupted run from its checkpoints (requires -cache-dir)")
	chaosOn := flag.Bool("chaos", false, "inject deterministic faults (transients, hangs, outliers, stuck counters)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection seed (with -chaos)")
	solverBudget := flag.Uint64("solver-budget", 0, "max CDCL conflicts per solver query; exhausted queries degrade to a partial mapping (0 = unlimited)")
	maxSlack := flag.Float64("max-slack", 0, "max per-measurement error-bound relaxation for UNSAT-core recovery (0 = disabled)")
	out := flag.String("out", "", "write the final mapping to this JSON file")
	witnesses := flag.Bool("witnesses", false, "print the CEGAR witness experiments")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()

	if *resume && *cacheDir == "" {
		return fmt.Errorf("-resume requires -cache-dir")
	}

	db := zenport.ZenDB()
	n := *noise
	if n == 0 {
		n = -1
	}

	machine := zenport.NewZenMachine(db, zenport.SimConfig{Noise: n, Seed: *seed})
	var proc zenport.Processor = machine
	var fper zenport.Fingerprinter = machine
	var cp *zenport.ChaosProcessor
	if *chaosOn {
		cp = zenport.WrapChaos(machine, *chaosSeed, zenport.DefaultChaosRegime())
		proc, fper = cp, cp
	}
	h := zenport.NewHarness(proc)
	h.Workers = *parallel
	fp := zenport.RunFingerprint(fper, h.Engine)

	opts := zenport.DefaultOptions()
	if !*quiet {
		opts.Log = func(format string, args ...any) { log.Printf(format, args...) }
	}
	opts.SolverBudget = zenport.SolverBudget{MaxConflicts: *solverBudget}
	opts.MaxSlack = *maxSlack

	schemes := zenport.ZenSchemes(db)
	if *maxSchemes > 0 && *maxSchemes < len(schemes) {
		schemes = schemes[:*maxSchemes]
	}

	// SIGINT/SIGTERM cancel the inference context: measurement batches
	// and solver queries stop promptly, and the deferred store.Close
	// compacts the journal so the interrupted run resumes cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cacheDir != "" {
		// The exclusive directory lock makes two processes on one cache
		// fail fast instead of interleaving journals.
		lk, err := zenport.LockCacheDir(*cacheDir)
		if err != nil {
			return err
		}
		defer lk.Unlock()
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

	rep, err := zenport.InferContext(ctx, h, schemes, opts)
	if err != nil {
		return fmt.Errorf("inference failed: %w", err)
	}

	printFunnel(rep)
	printTable1(rep)
	printTable2(rep)
	printCoverage(rep)
	if *witnesses {
		printWitnesses(rep)
	}
	printDegraded(rep)
	printSupervision(rep)
	m := h.Metrics()
	fmt.Printf("\ntotal distinct measurements: %d\n", h.MeasurementCount())
	fmt.Printf("engine: %d submitted, %d cache hits, %d coalesced, %d retries, batch wall %s\n",
		m.Submitted, m.CacheHits, m.Coalesced, m.Retries, m.BatchWall.Round(time.Millisecond))
	fmt.Printf("quality: %d/%d samples kept/rejected, %d quarantined, max spread %.4f, mean %.4f, backoff %s\n",
		m.SamplesKept, m.SamplesRejected, m.Quarantined, m.MaxSpread, m.MeanSpread,
		m.BackoffWait.Round(time.Microsecond))
	if cp != nil {
		fmt.Printf("chaos:  injection ledger: %s\n", cp.Ledger())
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep.Final, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("final mapping written to %s\n", *out)
	}
	return nil
}

func printFunnel(rep *zenport.Report) {
	byReason := map[string]int{}
	for _, r := range rep.Excluded {
		byReason[string(r)]++
	}
	fmt.Printf("== Scheme funnel (§4.1–§4.4)\n")
	fmt.Printf("initial schemes:             %d\n", rep.InitialSchemes)
	var reasons []string
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("  excluded, %-55s %d\n", r+":", byReason[r])
	}
	fmt.Printf("blocking candidates after stage 1:  %d\n", rep.Candidates)
	fmt.Printf("candidates in classes after stage 2: %d\n", rep.CandidatesFiltered)
}

func printTable1(rep *zenport.Report) {
	fmt.Printf("\n== Table 1: blocking instruction classes\n")
	fmt.Printf("%-7s %-42s %-8s\n", "#Ports", "Representative", "#Equiv.")
	for _, cls := range rep.Classes {
		fmt.Printf("%-7d %-42s %-8d\n", cls.PortCount, cls.Rep, len(cls.Members))
	}
}

func printTable2(rep *zenport.Report) {
	fmt.Printf("\n== Table 2: inferred port usage of the blocking instructions\n")
	fmt.Printf("(%d CEGAR rounds; anomalous blockers excluded: %v)\n",
		rep.CEGARRounds, rep.AnomalousBlockers)
	for _, key := range rep.BlockerMapping.Keys() {
		u, _ := rep.BlockerMapping.Get(key)
		fmt.Printf("  %-42s %s\n", key, u)
	}
}

func printCoverage(rep *zenport.Report) {
	fmt.Printf("\n== Coverage (§4.4)\n")
	fmt.Printf("characterized schemes:  %d\n", len(rep.Characterized))
	fmt.Printf("spurious (microcode sequencer artifacts): %d\n", len(rep.Spurious))
	fmt.Printf("final mapping covers:   %d schemes\n", rep.Supported())
}

func printWitnesses(rep *zenport.Report) {
	fmt.Printf("\n== CEGAR witness experiments\n")
	for _, w := range rep.CEGARWitnesses {
		fmt.Printf("  %-40s t=%6.3f  %s\n", w.Exp, w.TInv, w.Claim)
	}
}

// printDegraded is the graceful-degradation report: instead of dying
// on bad measurements, the pipeline lists the ones that stayed
// low-confidence after adaptive escalation and quarantine.
func printDegraded(rep *zenport.Report) {
	if len(rep.Degraded) == 0 {
		return
	}
	fmt.Printf("\n== Degraded measurements (proceeded with reduced confidence)\n")
	for _, d := range rep.Degraded {
		fmt.Printf("  %-42s spread %.4f (kept %d, rejected %d)\n",
			d.Key, d.Quality.Spread, d.Quality.Kept, d.Quality.Rejected)
	}
	fmt.Printf("inference completed despite %d low-confidence measurement(s); treat the facts they support with suspicion\n",
		len(rep.Degraded))
}

// printSupervision reports what the solver supervision layer did:
// aggregate CDCL telemetry, any inconsistency cores it isolated with
// the relaxations that recovered them, budget stops, and the schemes
// that ended the run unresolved or relaxed.
func printSupervision(rep *zenport.Report) {
	s := rep.Supervision
	if s == nil {
		return
	}
	fmt.Printf("\n== Solver supervision\n")
	fmt.Printf("solver: %d queries, %d theory iterations, %d lemmas, %d conflicts, %d decisions, %d propagations, %d restarts\n",
		s.Solver.Queries, s.Solver.TheoryIterations, s.Solver.LemmasLearned,
		s.Solver.Solver.Conflicts, s.Solver.Solver.Decisions,
		s.Solver.Solver.Propagations, s.Solver.Solver.Restarts)
	if s.BudgetStops > 0 {
		fmt.Printf("budget: %d quer(ies) stopped at the solver budget; results degraded, not aborted\n", s.BudgetStops)
	}
	for _, c := range s.Cores {
		fmt.Printf("inconsistency core (minimal conflicting experiment set): %v\n", c)
	}
	for _, rx := range s.Relaxations {
		fmt.Printf("relaxed %-42s slack %.2f (t_inv %.4f -> %.4f)\n", rx.Key, rx.Slack, rx.OldTInv, rx.NewTInv)
	}
	if len(rep.Relaxed) > 0 {
		fmt.Printf("schemes supported by relaxed measurements: %v\n", rep.Relaxed)
	}
	if len(rep.Unresolved) > 0 {
		fmt.Printf("unresolved schemes (absent from the mapping; rerun with -resume to retry): %v\n", rep.Unresolved)
	}
}
