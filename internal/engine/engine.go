// Package engine is the batch measurement engine of the
// reproduction. The paper's case study spends 12–20 hours on
// hardware microbenchmarks, and measurement volume dominates the
// cost of every port-mapping inference approach (uops.info, PMEvo,
// and Ritter & Hack alike). The engine restructures the measurement
// path from call-at-a-time to batch-at-a-time: callers submit slices
// of experiments plus a context.Context, and the engine executes
// them across a configurable worker pool with
//
//   - a single canonical-key result cache,
//   - in-flight request deduplication (singleflight-style), so the
//     same experiment is never executed twice concurrently,
//   - bounded retry on transient Execute errors,
//   - cancellation that returns promptly with partial results, and
//   - progress/metrics hooks (submitted / executed / cache hits /
//     coalesced / wall-clock).
//
// Determinism under parallelism is the point: results must be
// bit-for-bit identical regardless of worker count and scheduling
// order. The engine guarantees that the set of processor executions
// and their per-kernel order depend only on the submitted
// experiments — never on scheduling — and the simulated machine
// (internal/zensim) derives its noise RNG per execution from
// (global seed, canonical kernel key, per-kernel repetition index),
// so any interleaving of distinct kernels draws identical noise.
//
// The measurement method is the paper's and is fixed: the median of
// Reps = 11 runs of 100 kernel iterations, escalated adaptively while
// the samples spread wider than 5%, and up to 2 retries of a transient
// failure after a short jittered backoff. Only the worker count and the
// persist hook are settable, and neither enters Fingerprint.
//
// The engine is the one measurement entry point: the pipeline, the
// baselines and the evaluation all measure through Measure or
// MeasureBatch, and every call takes the caller's context.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zenport/internal/portmodel"
	"zenport/internal/stats"
)

// Counters are the raw performance-counter readings of one kernel
// run, totalled over all iterations.
type Counters struct {
	// Cycles is the measured core cycle count (noisy).
	Cycles float64
	// Instructions is the number of retired instructions.
	Instructions uint64
	// Ops is the reading of the "Retired Uops" counter. On the Zen+
	// model this counts macro-ops, not µops (§4.1.1).
	Ops uint64
	// PortOps[k] is the number of µops executed on port k. Only
	// populated when the processor exposes per-port counters (the
	// Intel-like mode used by the uops.info baseline); nil otherwise.
	PortOps []float64
	// FPPortOps[k] is the per-pipe counter of the four FP pipes,
	// which Zen+ does provide (§4, "port usage of FP/vector
	// instructions ... available").
	FPPortOps []float64
}

// Processor abstracts the machine under measurement — on real
// hardware this would drive nanoBench; here it is the Zen+ simulator
// or a toy model.
type Processor interface {
	// Execute runs the kernel (a list of scheme keys) for the given
	// number of steady-state iterations and returns total counters.
	Execute(kernel []string, iterations int) (Counters, error)
	// NumPorts returns the number of execution ports.
	NumPorts() int
	// Rmax returns the frontend/retire bottleneck in instructions
	// per cycle (0 = none).
	Rmax() float64
}

// Result is a processed measurement for one experiment. The zero
// value (Runs == 0) marks an experiment that was not measured — the
// partial-result signal after a cancelled batch.
type Result struct {
	// InvThroughput is the median inverse throughput in cycles per
	// experiment iteration, over the samples that survived outlier
	// rejection.
	InvThroughput float64
	// CPI is InvThroughput divided by the number of instructions.
	CPI float64
	// OpsPerIteration is the median op-counter reading per
	// iteration (macro-ops on Zen+).
	OpsPerIteration float64
	// Spread is the raw relative spread (max−min)/median of the
	// inverse throughput across the surviving samples. Bimodal
	// measurements — the unstable instructions of §4.1.2/§4.2 — show
	// a large spread that the median alone would hide; the outlier
	// rejection deliberately keeps such modes (they sit far inside
	// the rejection window), so this signal survives it.
	Spread float64
	// PortOps is the median per-port µop count per iteration (nil
	// without per-port counters).
	PortOps []float64
	// FPPortOps is the median per-FP-pipe µop count per iteration.
	FPPortOps []float64
	// Runs is the total number of successful processor executions
	// behind this result, including rejected samples. The persistence
	// layer restores per-kernel execution counters from it, so it
	// must count executions (RNG draws), not surviving samples.
	Runs int
	// Quality describes how trustworthy the result is.
	Quality Quality
}

// Quality is the confidence record of one measurement: how many
// samples the adaptive collection kept and rejected, how concentrated
// the survivors are, and whether the engine gave up on reaching its
// quality target. Low-confidence results are flagged, never fatal —
// the pipeline proceeds with them and reports them as degraded.
type Quality struct {
	// Kept is the number of samples that survived outlier rejection
	// and fed the medians.
	Kept int
	// Rejected is the number of samples discarded as outliers.
	Rejected int
	// Spread is the robust relative spread (IQR/median) of the kept
	// samples — the quantity the escalation loop drives under the
	// quality threshold.
	Spread float64
	// Quarantined records that the measurement missed the quality
	// target at the repetition cap and earned one extra re-measured
	// batch.
	Quarantined bool
	// LowConfidence marks a measurement that still missed the quality
	// target after quarantine. Consumers should treat the value as
	// usable but degraded.
	LowConfidence bool
}

// TransientError marks an Execute failure as retryable: the engine
// re-issues the kernel up to maxRetries times before giving up.
// Permanent errors (unknown schemes, bad iteration counts) abort
// immediately.
type TransientError struct{ Err error }

// Error implements error.
func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }

// Unwrap exposes the underlying error.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable.
func Transient(err error) error { return &TransientError{Err: err} }

// PersistHook is the engine's seam to a crash-safe on-disk layer
// (internal/persist). When Engine.Persist is set, every newly
// executed result is recorded, batch boundaries are announced (the
// store fsyncs and compacts there), and generation switches pull the
// stored results of the new generation to pre-warm the cache.
//
// Implementations must be safe for concurrent use: Record is called
// from worker goroutines.
type PersistHook interface {
	// Record persists one newly executed result under its cache
	// generation and canonical experiment key.
	Record(gen uint64, key string, r Result)
	// Generation returns the stored results of one generation, used
	// to warm the cache when the engine enters it.
	Generation(gen uint64) map[string]Result
	// BatchEnd marks the end of a MeasureBatch call — a consistency
	// point where the store may sync and compact.
	BatchEnd()
}

// ContextProcessor is an optional Processor extension for machines
// whose executions can block (real hardware wedging, injected hangs):
// the engine prefers ExecuteContext when available, so a cancelled
// context interrupts the execution itself rather than only the gaps
// between executions.
type ContextProcessor interface {
	// ExecuteContext is Execute observing ctx while it runs.
	ExecuteContext(ctx context.Context, kernel []string, iterations int) (Counters, error)
}

// ExecCountRestorer is an optional Processor extension for crash
// recovery. Processors that derive measurement noise from a
// per-kernel execution counter (internal/zensim) implement it so a
// resumed run can restore those counters from the journal; re-executed
// experiments then draw exactly the noise an uninterrupted run would
// have drawn, which is what makes resumed output byte-identical.
type ExecCountRestorer interface {
	// RestoreExecCount sets the number of prior executions of kernel.
	RestoreExecCount(kernel []string, executions uint64)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Metrics is a snapshot of the engine's counters. All counts are
// cumulative over the engine's lifetime; BeginGeneration does not
// reset them.
type Metrics struct {
	// Submitted counts experiments handed to Measure/MeasureBatch.
	Submitted uint64
	// Completed counts experiments resolved with a result.
	Completed uint64
	// Executed counts distinct experiments actually run on the
	// processor (cache misses that completed).
	Executed uint64
	// CacheHits counts experiments answered from the result cache.
	CacheHits uint64
	// Coalesced counts experiments that joined a duplicate — either
	// within one batch or an in-flight execution of the same key.
	Coalesced uint64
	// Retries counts transient-error re-executions.
	Retries uint64
	// Canceled counts experiments abandoned due to context
	// cancellation or deadline.
	Canceled uint64
	// BatchWall is the cumulative wall-clock time spent inside
	// MeasureBatch.
	BatchWall time.Duration
	// ProcessorCalls counts individual processor execution attempts,
	// including retried failures and adaptive escalation — the raw
	// measurement volume behind Executed.
	ProcessorCalls uint64
	// SamplesKept / SamplesRejected total the per-result Quality
	// sample accounting across all executed experiments.
	SamplesKept     uint64
	SamplesRejected uint64
	// Quarantined counts measurements that missed the quality target
	// at the repetition cap and were re-measured once.
	Quarantined uint64
	// LowConfidence counts executed measurements still flagged after
	// quarantine.
	LowConfidence uint64
	// MaxSpread / MeanSpread aggregate Result.Spread over executed
	// experiments (mean is over executions; 0 when nothing ran).
	MaxSpread  float64
	MeanSpread float64
	// BackoffWait is the cumulative time spent sleeping between
	// transient-error retries.
	BackoffWait time.Duration
	// Remeasured counts forced re-measurements of already-cached
	// experiments (the solver supervision's inconsistency recovery).
	Remeasured uint64
}

// Engine executes measurement batches over a worker pool with a
// canonical-key cache. The exported configuration fields must be set
// before the first measurement and not mutated concurrently with
// one; New installs the paper's defaults.
type Engine struct {
	// P is the processor under measurement.
	P Processor
	// Workers is the size of the batch worker pool (≤0 means
	// GOMAXPROCS). Results are identical for every value.
	Workers int
	// Persist, if non-nil, receives every newly executed result and
	// warms the cache across generation switches; see PersistHook.
	// Set it before the first measurement (persist.Store.Attach does).
	Persist PersistHook

	mu    sync.Mutex
	cache map[string]Result
	// flight deduplicates concurrent executions of the same canonical
	// key. It shares mu, so the cache probe and the in-flight registry
	// are checked atomically (see flight).
	flight *flight
	// gen is the cache generation: BeginGeneration sets it, and persisted results are keyed by it so independent
	// re-measurement rounds (the stage-4 characterization runs) do
	// not alias in the on-disk cache.
	gen uint64
	// lowConf registers every low-confidence result seen over the
	// engine's lifetime (executed or warmed from the cache), keyed by
	// canonical key — the source of the pipeline's degradation
	// report. Generations do not clear it; worst spread wins.
	lowConf map[string]Quality

	submitted   atomic.Uint64
	completed   atomic.Uint64
	executed    atomic.Uint64
	cacheHits   atomic.Uint64
	coalesced   atomic.Uint64
	retries     atomic.Uint64
	canceled    atomic.Uint64
	wallNanos   atomic.Int64
	procCalls   atomic.Uint64
	kept        atomic.Uint64
	rejected    atomic.Uint64
	quarantined atomic.Uint64
	lowConfN    atomic.Uint64
	maxSpread   atomic.Uint64 // float64 bits, CAS-maxed
	spreadSum   atomic.Uint64 // float64 bits, CAS-added
	backoffNano atomic.Int64
	remeasured  atomic.Uint64
}

// The paper's measurement method, fixed for every measurement.
const (
	// Reps is the number of runs per measurement batch; the median is
	// reported (paper: 11).
	Reps = 11
	// iterations is the number of kernel iterations per run.
	iterations = 100
	// maxRetries bounds re-executions after a transient error.
	maxRetries = 2
	// qualitySpread is the robust-spread (IQR/median) target of the
	// adaptive repetition loop: collection escalates past Reps while
	// the surviving samples spread wider than this.
	qualitySpread = 0.05
	// maxRepsFactor caps the adaptive escalation at maxRepsFactor×Reps
	// samples. A measurement still missing the quality target at the
	// cap is quarantined — granted one extra batch of Reps samples —
	// and then flagged low-confidence rather than failed.
	maxRepsFactor = 3
	// backoffBase is the first retry delay after a transient error;
	// the second attempt doubles it. With maxRetries = 2 the delay
	// never exceeds 2×backoffBase, so it needs no cap.
	backoffBase = 100 * time.Microsecond
)

// New returns an engine with GOMAXPROCS workers; every measurement
// parameter is one of the constants above.
func New(p Processor) *Engine {
	g := &Engine{
		P:       p,
		cache:   make(map[string]Result),
		lowConf: make(map[string]Quality),
	}
	g.flight = newFlight(&g.mu)
	return g
}

// CanonicalKey renders the experiment canonically ("n*key|m*key" in
// sorted key order); it is the cache and deduplication identity and
// the per-experiment RNG derivation input of the simulator.
func CanonicalKey(e portmodel.Experiment) string {
	keys := e.Keys()
	var b strings.Builder
	grow := 0
	for _, k := range keys {
		grow += len(k) + 13 // count digits + '*' + '|'
	}
	b.Grow(grow)
	var num [20]byte
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('|')
		}
		b.Write(strconv.AppendInt(num[:0], int64(e[k]), 10))
		b.WriteByte('*')
		b.WriteString(k)
	}
	return b.String()
}

// KernelOf flattens an experiment multiset into a deterministic
// kernel: instructions interleaved round-robin so that the blocking
// instructions surround the instruction under investigation, as the
// paper's microbenchmarks do.
func KernelOf(e portmodel.Experiment) []string {
	keys := e.Keys()
	remaining := make([]int, len(keys))
	total := 0
	for i, k := range keys {
		remaining[i] = e[k]
		total += e[k]
	}
	kernel := make([]string, 0, total)
	for len(kernel) < total {
		for i, k := range keys {
			if remaining[i] > 0 {
				kernel = append(kernel, k)
				remaining[i]--
			}
		}
	}
	return kernel
}

// Measure runs one experiment through the cache, in-flight
// deduplication, and the processor, honoring ctx.
func (g *Engine) Measure(ctx context.Context, e portmodel.Experiment) (Result, error) {
	if e.Len() == 0 {
		return Result{}, fmt.Errorf("engine: empty experiment")
	}
	g.submitted.Add(1)
	return g.measureKey(ctx, CanonicalKey(e), e)
}

// MeasureBatch executes the experiments across the worker pool and
// returns results aligned with the input slice. Duplicate
// experiments (same canonical key) are executed once. On
// cancellation or error the partial results are returned together
// with the first error; completed entries have Runs > 0.
//
// Results are deterministic: the set of processor executions and
// their per-kernel order depend only on the submitted experiments,
// never on Workers or goroutine scheduling.
func (g *Engine) MeasureBatch(ctx context.Context, exps []portmodel.Experiment) ([]Result, error) {
	start := time.Now()
	defer func() { g.wallNanos.Add(int64(time.Since(start))) }()

	results := make([]Result, len(exps))
	g.submitted.Add(uint64(len(exps)))

	// Deduplicate within the batch, preserving first-seen order.
	type job struct {
		key  string
		exp  portmodel.Experiment
		idxs []int
	}
	byKey := make(map[string]*job, len(exps))
	var order []*job
	for i, e := range exps {
		if e.Len() == 0 {
			return nil, fmt.Errorf("engine: empty experiment at index %d", i)
		}
		k := CanonicalKey(e)
		j, ok := byKey[k]
		if !ok {
			j = &job{key: k, exp: e}
			byKey[k] = j
			order = append(order, j)
		} else {
			g.coalesced.Add(1)
			g.completed.Add(1) // resolved by the first occurrence
		}
		j.idxs = append(j.idxs, i)
	}

	workers := g.WorkerCount()
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		return results, nil
	}

	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
		jobs     = make(chan *job)
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, err := g.measureKey(bctx, j.key, j.exp)
				if err != nil {
					fail(err)
					continue
				}
				for _, i := range j.idxs {
					results[i] = r
				}
			}
		}()
	}
feed:
	for _, j := range order {
		select {
		case jobs <- j:
		case <-bctx.Done():
			fail(bctx.Err())
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if g.Persist != nil {
		g.Persist.BatchEnd()
	}
	if firstErr != nil {
		return results, firstErr
	}
	return results, nil
}

// InvThroughputs is MeasureBatch returning only the median inverse
// throughputs.
func (g *Engine) InvThroughputs(ctx context.Context, exps []portmodel.Experiment) ([]float64, error) {
	rs, err := g.MeasureBatch(ctx, exps)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.InvThroughput
	}
	return out, nil
}

// measureKey resolves one canonical key through the cache and the
// flight's in-flight deduplication. If a concurrent leader fails, the
// caller retries as leader itself so the error it reports reflects its
// own context. The probe and commit hooks run under the engine mutex
// and publish outside it, so cache fills, low-confidence registration,
// generation capture, and journal records keep their ordering
// guarantees.
func (g *Engine) measureKey(ctx context.Context, key string, e portmodel.Experiment) (Result, error) {
	var gen uint64
	r, out, err := g.flight.do(ctx, key,
		func() (Result, bool) {
			r, ok := g.cache[key]
			return r, ok
		},
		func() (Result, error) { return g.execute(ctx, e) },
		func(r Result) {
			g.cache[key] = r
			if r.Quality.LowConfidence {
				g.noteLowConfLocked(key, r.Quality)
			}
			gen = g.gen
		},
		func(r Result) {
			if g.Persist != nil {
				g.Persist.Record(gen, key, r)
			}
		})
	g.coalesced.Add(uint64(out.joined))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			g.canceled.Add(1)
		}
		return Result{}, err
	}
	switch {
	case out.hit:
		g.cacheHits.Add(1)
	case out.led:
		g.executed.Add(1)
	}
	g.completed.Add(1)
	return r, nil
}

// Outlier-rejection gates of the adaptive collection: a sample is an
// outlier when it sits more than rejectKMAD robust standard deviations
// AND more than rejectMinRel × median away from the median (the
// threshold is the max of the two distances). The wide relative floor
// is deliberate: the bimodal instabilities of §4.1.2/§4.2 place their
// modes well within 3× of the median and must survive rejection at
// any mode split — they are a signal the spread-based exclusion
// stages consume — while corrupted samples (a 10× latency spike) sit
// far outside it.
const (
	rejectKMAD   = 3.5
	rejectMinRel = 3.0
)

// sample is the per-iteration reading of one successful execution.
type sample struct {
	cyc, ops float64
	port, fp []float64
}

// execute runs the experiment adaptively: an initial batch of Reps
// samples, MAD-based outlier rejection, then escalating repetitions
// (up to maxRepsFactor×Reps, plus one quarantine batch) until the
// robust spread of the surviving samples falls under qualitySpread.
// Measurements that never get there are flagged low-confidence, not
// failed. ctx is checked between repetitions.
//
// Every decision in this loop — rejection, escalation, quarantine —
// depends only on the samples of this kernel, which themselves depend
// only on (kernel, per-kernel execution index). Adaptive repetition
// therefore preserves the engine's worker-count invariance.
func (g *Engine) execute(ctx context.Context, e portmodel.Experiment) (Result, error) {
	kernel := KernelOf(e)
	var ss []sample
	collect := func(k int) error {
		for i := 0; i < k; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			c, err := g.executeOnce(ctx, kernel)
			if err != nil {
				return err
			}
			s := sample{cyc: c.Cycles / iterations, ops: float64(c.Ops) / iterations}
			if c.PortOps != nil {
				s.port = scaled(c.PortOps)
			}
			if c.FPPortOps != nil {
				s.fp = scaled(c.FPPortOps)
			}
			ss = append(ss, s)
		}
		return nil
	}
	if err := collect(Reps); err != nil {
		return Result{}, err
	}

	budget := maxRepsFactor * Reps
	var keep []bool
	var q Quality
	for {
		cyc := make([]float64, len(ss))
		for i, s := range ss {
			cyc[i] = s.cyc
		}
		var rej int
		keep, rej = stats.RejectOutliers(cyc, rejectKMAD, rejectMinRel)
		kept := masked(cyc, keep)
		q = Quality{Kept: len(kept), Rejected: rej, Spread: stats.RobustSpread(kept), Quarantined: q.Quarantined}
		if q.Spread <= qualitySpread {
			break
		}
		if len(ss) < budget {
			step := Reps
			if len(ss)+step > budget {
				step = budget - len(ss)
			}
			if err := collect(step); err != nil {
				return Result{}, err
			}
			continue
		}
		if !q.Quarantined {
			// Quality target missed at the cap: quarantine the
			// measurement and re-measure once (one more batch pooled
			// with what we have) before giving up on the target.
			q.Quarantined = true
			g.quarantined.Add(1)
			budget += Reps
			continue
		}
		q.LowConfidence = true
		break
	}

	res := Result{Runs: len(ss), Quality: q}
	var cyc, ops []float64
	var portOps, fpOps [][]float64
	for i, s := range ss {
		if !keep[i] {
			continue
		}
		cyc = append(cyc, s.cyc)
		ops = append(ops, s.ops)
		if s.port != nil {
			portOps = append(portOps, s.port)
		}
		if s.fp != nil {
			fpOps = append(fpOps, s.fp)
		}
	}
	res.InvThroughput = median(cyc)
	res.OpsPerIteration = median(ops)
	res.CPI = res.InvThroughput / float64(len(kernel))
	if res.InvThroughput > 0 {
		lo, hi := cyc[0], cyc[len(cyc)-1] // median() sorted cyc
		res.Spread = (hi - lo) / res.InvThroughput
	}
	if len(portOps) > 0 {
		res.PortOps = medianVec(portOps)
	}
	if len(fpOps) > 0 {
		res.FPPortOps = medianVec(fpOps)
	}

	g.kept.Add(uint64(q.Kept))
	g.rejected.Add(uint64(q.Rejected))
	if q.LowConfidence {
		g.lowConfN.Add(1)
	}
	g.recordSpread(res.Spread)
	return res, nil
}

// scaled divides a counter vector by the iteration count.
func scaled(v []float64) []float64 {
	out := make([]float64, len(v))
	for k := range v {
		out[k] = v[k] / iterations
	}
	return out
}

// masked returns the kept elements of xs.
func masked(xs []float64, keep []bool) []float64 {
	out := make([]float64, 0, len(xs))
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// recordSpread folds one result spread into the max/mean aggregates
// with lock-free CAS loops (Record is called from worker goroutines).
func (g *Engine) recordSpread(s float64) {
	for {
		old := g.maxSpread.Load()
		if s <= math.Float64frombits(old) {
			break
		}
		if g.maxSpread.CompareAndSwap(old, math.Float64bits(s)) {
			break
		}
	}
	for {
		old := g.spreadSum.Load()
		if g.spreadSum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+s)) {
			break
		}
	}
}

// executeOnce issues one kernel run with bounded retry on transient
// errors, sleeping an exponentially growing, deterministically
// jittered delay between attempts. The retry loop and the sleep both
// consult ctx: a canceled batch must not keep re-executing failing
// kernels up to maxRetries, nor finish a backoff sleep. Processors
// implementing ContextProcessor are additionally interruptible inside
// the execution itself.
func (g *Engine) executeOnce(ctx context.Context, kernel []string) (Counters, error) {
	cp, hasCtx := g.P.(ContextProcessor)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return Counters{}, err
		}
		g.procCalls.Add(1)
		var c Counters
		var err error
		if hasCtx {
			c, err = cp.ExecuteContext(ctx, kernel, iterations)
		} else {
			c, err = g.P.Execute(kernel, iterations)
		}
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !IsTransient(err) || attempt >= maxRetries {
			return Counters{}, lastErr
		}
		g.retries.Add(1)
		if err := g.backoff(ctx, kernel, attempt); err != nil {
			return Counters{}, err
		}
	}
}

// backoff sleeps before retry number attempt+1: backoffBase doubled
// per attempt, jittered into [d/2, d] by a deterministic hash of
// (kernel, attempt) — reruns back off identically, while concurrently
// failing kernels decorrelate.
func (g *Engine) backoff(ctx context.Context, kernel []string, attempt int) error {
	d := backoffBase << uint(attempt)
	h := fnv.New64a()
	for _, k := range kernel {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte{0})
	}
	z := splitmix64(h.Sum64() ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	return g.sleep(ctx, d/2+time.Duration(z%uint64(d/2+1)))
}

// sleep waits for d unless ctx ends first, and adds the time it waited
// to Metrics.BackoffWait.
func (g *Engine) sleep(ctx context.Context, d time.Duration) error {
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		g.backoffNano.Add(int64(time.Since(start)))
		return ctx.Err()
	case <-t.C:
		g.backoffNano.Add(int64(d))
		return nil
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator, used to
// scatter the structured backoff-jitter inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// WorkerCount resolves the configured pool size: Workers, or
// GOMAXPROCS when Workers ≤ 0.
func (g *Engine) WorkerCount() int {
	if g.Workers > 0 {
		return g.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// MeasurementCount returns the number of distinct experiments
// actually executed on the processor (cache misses).
func (g *Engine) MeasurementCount() int {
	return int(g.executed.Load())
}

// Metrics returns a snapshot of the engine's counters.
func (g *Engine) Metrics() Metrics {
	m := Metrics{
		Submitted:       g.submitted.Load(),
		Completed:       g.completed.Load(),
		Executed:        g.executed.Load(),
		CacheHits:       g.cacheHits.Load(),
		Coalesced:       g.coalesced.Load(),
		Retries:         g.retries.Load(),
		Canceled:        g.canceled.Load(),
		BatchWall:       time.Duration(g.wallNanos.Load()),
		ProcessorCalls:  g.procCalls.Load(),
		SamplesKept:     g.kept.Load(),
		SamplesRejected: g.rejected.Load(),
		Quarantined:     g.quarantined.Load(),
		LowConfidence:   g.lowConfN.Load(),
		MaxSpread:       math.Float64frombits(g.maxSpread.Load()),
		BackoffWait:     time.Duration(g.backoffNano.Load()),
		Remeasured:      g.remeasured.Load(),
	}
	if m.Executed > 0 {
		m.MeanSpread = math.Float64frombits(g.spreadSum.Load()) / float64(m.Executed)
	}
	return m
}

// LowConfidence returns every low-confidence measurement the engine
// has seen (executed in this process or warmed from the persisted
// cache), keyed by canonical experiment key. The pipeline turns this
// into its degradation report.
func (g *Engine) LowConfidence() map[string]Quality {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]Quality, len(g.lowConf))
	for k, q := range g.lowConf {
		out[k] = q
	}
	return out
}

// noteLowConfLocked registers a flagged measurement. Worst spread
// wins, so the merged registry is independent of the order in which
// generations and workers encounter the key.
func (g *Engine) noteLowConfLocked(key string, q Quality) {
	if g.lowConf == nil {
		g.lowConf = make(map[string]Quality)
	}
	if old, ok := g.lowConf[key]; !ok || q.Spread > old.Spread {
		g.lowConf[key] = q
	}
}

// Fingerprint identifies the engine's measurement parameters for the
// persistence layer. Workers is deliberately excluded: results are
// byte-identical at any worker count, so a cache written at
// -parallel 4 is valid at -parallel 16. The fixed measurement
// constants are spelled out so that a build changing one of them
// invalidates the caches of earlier builds. eps=0.02 is the paper's
// CPI tolerance; measurements do not depend on it, but caches written
// by earlier builds carry it, so it stays in the bytes.
func (g *Engine) Fingerprint() string {
	return fmt.Sprintf("engine:v2 reps=%d iters=%d eps=0.02 qspread=%g maxreps=%d",
		Reps, iterations, qualitySpread, maxRepsFactor*Reps)
}

// CacheGeneration returns the current cache generation.
func (g *Engine) CacheGeneration() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// BeginGeneration enters cache generation n: a no-op when already
// there (the warm cache is kept), otherwise the in-memory cache is
// reset and — with a persist hook attached — pre-warmed with the
// stored results of generation n. The inference pipeline names its
// stage-4 characterization runs explicitly with this so a resumed run
// lands in the same generation, and the same on-disk results, as the
// interrupted one.
func (g *Engine) BeginGeneration(n uint64) {
	g.mu.Lock()
	if n == g.gen {
		g.mu.Unlock()
		return
	}
	g.gen = n
	g.cache = make(map[string]Result)
	g.mu.Unlock()
	if g.Persist != nil {
		g.WarmCache(g.Persist.Generation(n))
	}
}

// WarmCache merges previously persisted results into the cache.
// Warmed entries are answered as cache hits; they do not count as
// executions. Flagged results re-enter the low-confidence registry,
// so a resumed run's degradation report covers the work of the
// interrupted one.
func (g *Engine) WarmCache(results map[string]Result) {
	if len(results) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, r := range results {
		if r.Runs > 0 {
			g.cache[k] = r
			if r.Quality.LowConfidence {
				g.noteLowConfLocked(k, r.Quality)
			}
		}
	}
}

// Remeasure forces a fresh execution of the experiment, bypassing and
// then replacing the cache entry for its key. It exists for the solver
// supervision's inconsistency recovery: when an UNSAT core blames a
// measurement, re-running it gives the corrupted value a chance to
// heal before any error bound is relaxed.
//
// The returned result's summary statistics (InvThroughput, CPI,
// spreads) come from the fresh samples alone, but Runs is cumulative:
// it adds the replaced cache entry's Runs so the persisted record for
// this (generation, key) — which last-wins over the one it replaces —
// still carries the key's total successful-execution count, keeping
// crash-resume exec-count replay exact. Remeasure is meant for the
// sequential solver-recovery path; it must not race a batch that
// measures the same key.
func (g *Engine) Remeasure(ctx context.Context, e portmodel.Experiment) (Result, error) {
	if e.Len() == 0 {
		return Result{}, fmt.Errorf("engine: empty experiment")
	}
	key := CanonicalKey(e)
	res, err := g.execute(ctx, e)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			g.canceled.Add(1)
		}
		return Result{}, err
	}
	g.mu.Lock()
	if prior, ok := g.cache[key]; ok {
		res.Runs += prior.Runs
	}
	g.cache[key] = res
	if res.Quality.LowConfidence {
		g.noteLowConfLocked(key, res.Quality)
	}
	gen := g.gen
	g.mu.Unlock()
	if g.Persist != nil {
		g.Persist.Record(gen, key, res)
	}
	g.executed.Add(1)
	g.remeasured.Add(1)
	return res, nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianVec returns the component-wise median of equal-length vectors.
func medianVec(vs [][]float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float64, len(vs[0]))
	col := make([]float64, len(vs))
	for k := range out {
		for i := range vs {
			col[i] = vs[i][k]
		}
		out[k] = median(col)
	}
	return out
}
