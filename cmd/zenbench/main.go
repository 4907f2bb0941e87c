// Command zenbench is the nanoBench-alike of the reproduction: it
// runs a single steady-state kernel on the simulated Zen+ machine and
// prints the measured counters — median inverse throughput, CPI,
// retired-op counts (macro-ops on Zen+), and the FP-pipe counters.
//
// Kernels are given as ';'-separated scheme keys with optional
// multipliers; scheme keys contain commas, so commas do not separate
// terms. '|' separates terms too, so a canonical experiment key from
// zeninfer's degradation report can be pasted as is. For example:
//
//	zenbench -kernel '4*add GPR[32], GPR[32]; 1*imul GPR[32], GPR[32]'
//	zenbench -kernel '1*add GPR[32], GPR[32]|1*cmova GPR[16], GPR[16]'
//	zenbench -list 'vpor'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"zenport"
)

// main delegates to run so the deferred persist-store Close (journal
// compaction) runs on every exit path, including signal cancellation.
func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	kernel := flag.String("kernel", "", "kernel: ';'- or '|'-separated 'N*scheme key' terms")
	list := flag.String("list", "", "list scheme keys containing this substring")
	seed := flag.Int64("seed", 2600, "noise seed")
	noise := flag.Float64("noise", 0.001, "relative measurement noise")
	parallel := flag.Int("parallel", 0, "measurement worker pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the measurement after this duration (0 = none)")
	intel := flag.Bool("intel", false, "enable Intel-like per-port µop counters")
	ideal := flag.Bool("ideal", false, "disable the Zen+ anomalies")
	cacheDir := flag.String("cache-dir", "", "crash-safe measurement cache directory (empty = no persistence)")
	chaosOn := flag.Bool("chaos", false, "inject deterministic faults (transients, hangs, outliers, stuck counters)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection seed (with -chaos)")
	predict := flag.Bool("predict", false, "also print the ground-truth port-model prediction (compiled evaluator)")
	flag.Parse()

	db := zenport.ZenDB()
	if *list != "" {
		for _, key := range db.Keys() {
			if strings.Contains(key, *list) {
				sp := db.MustGet(key)
				fmt.Printf("%-45s macro-ops=%d  truth=%s\n", key, sp.MacroOps, sp.Uops)
			}
		}
		return nil
	}
	if *kernel == "" {
		return fmt.Errorf("specify -kernel or -list")
	}

	// Canonical experiment keys ("1*a|2*b", as zeninfer's degradation
	// report prints them) are accepted as well.
	e, err := zenport.ParseKernel(strings.ReplaceAll(*kernel, "|", ";"))
	if err != nil {
		return err
	}
	if e.Len() == 0 {
		return fmt.Errorf("empty kernel %q", *kernel)
	}
	// Unknown scheme keys are user input, not bugs: report them with
	// suggestions and exit 1 instead of dumping a stack trace.
	for _, key := range sortedKeys(e) {
		if _, err := db.SchemeByKey(key); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	n := *noise
	if n == 0 {
		n = -1
	}
	machine := zenport.NewZenMachine(db, zenport.SimConfig{
		Noise: n, Seed: *seed, PerPortCounters: *intel, DisableAnomalies: *ideal,
	})
	var proc zenport.Processor = machine
	var fper zenport.Fingerprinter = machine
	var cp *zenport.ChaosProcessor
	if *chaosOn {
		cp = zenport.WrapChaos(machine, *chaosSeed, zenport.DefaultChaosRegime())
		proc, fper = cp, cp
	}
	h := zenport.NewHarness(proc)
	h.Workers = *parallel
	if *cacheDir != "" {
		// Exclusive lock: a second process on the same cache directory
		// fails fast instead of interleaving journal writes.
		lk, err := zenport.LockCacheDir(*cacheDir)
		if err != nil {
			return err
		}
		defer lk.Unlock()
		store, err := zenport.OpenCache(*cacheDir, zenport.RunFingerprint(fper, h.Engine))
		if err != nil {
			return fmt.Errorf("opening cache: %w", err)
		}
		store.SetLog(log.Printf)
		defer store.Close()
		if err := store.Attach(h.Engine); err != nil {
			return fmt.Errorf("attaching cache: %w", err)
		}
	}
	// SIGINT/SIGTERM cancel the measurement; the deferred store Close
	// above still compacts the journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	r, err := h.Engine.Measure(ctx, e)
	if err != nil {
		return err
	}
	fmt.Printf("kernel:            %s\n", e)
	fmt.Printf("inverse throughput: %.4f cycles/iteration (median of %d kept samples, %d runs)\n",
		r.InvThroughput, r.Quality.Kept, r.Runs)
	fmt.Printf("CPI:               %.4f\n", r.CPI)
	fmt.Printf("IPC:               %.4f\n", 1/r.CPI)
	fmt.Printf("retired ops:       %.2f per iteration (macro-ops on Zen+)\n", r.OpsPerIteration)
	fmt.Printf("spread:            %.4f (robust %.4f)\n", r.Spread, r.Quality.Spread)
	if r.FPPortOps != nil {
		fmt.Printf("FP pipe µops:      %v\n", fmtVec(r.FPPortOps))
	}
	if r.PortOps != nil {
		fmt.Printf("per-port µops:     %v\n", fmtVec(r.PortOps))
	}
	if r.Quality.Rejected > 0 || r.Quality.Quarantined || r.Quality.LowConfidence {
		fmt.Printf("quality:           kept %d, rejected %d, quarantined %v, low-confidence %v\n",
			r.Quality.Kept, r.Quality.Rejected, r.Quality.Quarantined, r.Quality.LowConfidence)
	}
	m := h.Metrics()
	fmt.Printf("engine:            %d retries, %d samples rejected, max spread %.4f, mean %.4f, backoff %s\n",
		m.Retries, m.SamplesRejected, m.MaxSpread, m.MeanSpread, m.BackoffWait)
	if cp != nil {
		fmt.Printf("chaos ledger:      %s\n", cp.Ledger())
	}
	if *predict {
		comp, err := zenport.CompileMapping(db.Truth(), nil)
		if err != nil {
			return err
		}
		inv, err := comp.InverseThroughputBounded(e, machine.Rmax())
		if err != nil {
			return err
		}
		ipc, err := comp.IPC(e, machine.Rmax())
		if err != nil {
			return err
		}
		fmt.Printf("model tp⁻¹:        %.4f cycles/iteration (ground-truth port model)\n", inv)
		fmt.Printf("model IPC:         %.4f\n", ipc)
	}
	return nil
}

func sortedKeys(e zenport.Experiment) []string {
	keys := make([]string, 0, e.Len())
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
