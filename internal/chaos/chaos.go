// Package chaos injects deterministic, seeded faults into a
// measurement processor. Real Zen hardware does not fail politely:
// measurements hit interference spikes, frequency drift, stuck
// performance counters, transient harness errors, and occasional
// wedged runs. The pipeline's robustness claim — that no fault class
// can do worse than a flagged low-confidence measurement — is only
// credible if it can be exercised on demand, so this package wraps
// any engine.Processor in a configurable fault regime:
//
//   - transient Execute errors (consume engine retries, §robustness),
//   - hangs that must honor context cancellation,
//   - multiplicative latency/outlier spikes on the cycle counter,
//   - stuck (zeroed) op and FP-pipe counters,
//   - slow sinusoidal frequency drift.
//
// Fault plans are derived per (seed, kernel, round index) through the
// same splitmix64 discipline as the simulator's noise RNG
// (zensim.ExecSeed, salted so the streams never collide), where a
// round is one successful inner execution. Injection is therefore
// reproducible at any worker count, and RestoreExecCount replays a
// resumed process into exactly the fault stream the interrupted one
// was drawing — the property the chaos soak test's byte-identical
// kill-and-resume run checks.
//
// Pre-execution faults (transients, hangs) fire before the inner
// processor runs, so they never advance the inner machine's noise
// streams; post-execution faults corrupt only the returned counters.
// Either way the inner measurement sequence stays aligned with a
// fault-free run — which is why a regime whose corruptions are
// rejected by the engine's outlier filter yields byte-identical
// inference output.
package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
	"zenport/internal/zensim"
)

// chaosSalt decorrelates fault-plan RNG streams from the simulator's
// measurement-noise streams when both are configured with the same
// seed.
const chaosSalt = 0x6368616f73 // "chaos"

// lieSalt separates the per-kernel consistent-lie decision stream from
// both the fault-plan and measurement-noise streams.
const lieSalt = 0x6c6965 // "lie"

// Regime configures the fault mix. All rates are per-round
// probabilities in [0, 1]; the zero value injects nothing.
type Regime struct {
	// TransientRate is the per-round probability of at least one
	// injected transient Execute error before the real execution;
	// each further consecutive transient is another TransientRate
	// draw, capped at MaxPreFaults.
	TransientRate float64
	// HangRate is the per-round probability that the first execution
	// attempt of the round blocks for HangDuration (or until its
	// context is cancelled) before proceeding.
	HangRate float64
	// HangDuration is how long an injected hang blocks.
	HangDuration time.Duration
	// MaxPreFaults caps consecutive injected transient errors per
	// round (≤0 means 2). It must not exceed the engine's 2 retries,
	// or injected transients can exhaust the retry budget and fail
	// measurements outright — deterministic degradation requires the
	// documented regimes to stay within the retry budget.
	MaxPreFaults int
	// OutlierRate is the per-round probability of multiplying the
	// measured cycles by OutlierFactor.
	OutlierRate float64
	// OutlierFactor is the cycle corruption factor (≤0 means 10).
	OutlierFactor float64
	// StuckRate is the per-round probability of zeroed op and
	// per-port counters (the counter-glitch fault class).
	StuckRate float64
	// DriftAmplitude scales a slow sinusoidal cycle drift,
	// 1 + A·sin(2π·round/DriftPeriod); 0 disables drift.
	DriftAmplitude float64
	// DriftPeriod is the drift period in rounds (≤0 disables drift).
	DriftPeriod int
	// LieRate is the per-kernel probability that the kernel lies
	// consistently: every execution of a lying kernel reports its
	// cycles multiplied by LieFactor. Unlike the per-round outlier
	// spikes, the decision is static per kernel, so all samples shift
	// identically, the robust spread stays perfect, and no outlier
	// filter can reject the corruption — it is only discoverable as a
	// cross-experiment inconsistency at the solver level. This is the
	// fault class the solver supervision's UNSAT-core recovery exists
	// for.
	LieRate float64
	// LieFactor is the consistent-lie cycle multiplier (≤0 means 2).
	LieFactor float64
	// LieMinDistinct gates lying to kernels with at least this many
	// distinct instructions. Setting it to 2 spares the singleton
	// kernels that stage 1/2 classification depends on, confining the
	// lie to the mixture experiments the SMT stages consume.
	LieMinDistinct int
	// LieExact, when non-empty, replaces the random draw: exactly the
	// kernels whose canonical experiment keys are listed lie. This is
	// the deterministic targeting used by tests that need a known
	// inconsistency.
	LieExact []string
}

// DefaultRegime is the documented soak regime: 2% transient errors,
// 0.2% hangs of 200µs, 1% 10× outlier spikes, and 0.5% stuck
// counters. Drift is off — a coherent drift shifts every sample of a
// window identically, which no outlier filter can reject, so it is
// exercised by its own unit test rather than the byte-identity soak.
func DefaultRegime() Regime {
	return Regime{
		TransientRate: 0.02,
		HangRate:      0.002,
		HangDuration:  200 * time.Microsecond,
		MaxPreFaults:  2,
		OutlierRate:   0.01,
		OutlierFactor: 10,
		StuckRate:     0.005,
	}
}

// Ledger is a snapshot of injected-fault counts per class.
type Ledger struct {
	// Transients counts injected transient Execute errors.
	Transients uint64
	// Hangs counts injected blocking delays.
	Hangs uint64
	// Outliers counts cycle-spike corruptions.
	Outliers uint64
	// Stuck counts zeroed-counter corruptions.
	Stuck uint64
	// Drifted counts executions whose cycles were drift-scaled.
	Drifted uint64
	// Lies counts executions of consistently lying kernels.
	Lies uint64
	// Rounds counts successful inner executions.
	Rounds uint64
}

// String renders the ledger as a one-line report.
func (l Ledger) String() string {
	return fmt.Sprintf("rounds=%d transients=%d hangs=%d outliers=%d stuck=%d drifted=%d lies=%d",
		l.Rounds, l.Transients, l.Hangs, l.Outliers, l.Stuck, l.Drifted, l.Lies)
}

// roundPlan is the per-kernel fault state of the current round. It is
// created from the round's RNG on the first execution attempt and
// consumed across the engine's retries; the round ends (and the plan
// is discarded) when the inner execution succeeds.
type roundPlan struct {
	pre     int // injected transient errors still to serve
	hang    bool
	outlier bool
	stuck   bool
}

// Processor wraps an inner processor in a fault regime. It is safe
// for concurrent use; per-kernel state is independent, so concurrent
// measurement of distinct kernels observes exactly the fault stream a
// sequential run would.
type Processor struct {
	inner  engine.Processor
	seed   int64
	regime Regime

	mu      sync.Mutex
	rounds  map[uint64]uint64
	pending map[uint64]*roundPlan

	transients atomic.Uint64
	hangs      atomic.Uint64
	outliers   atomic.Uint64
	stuck      atomic.Uint64
	drifted    atomic.Uint64
	lies       atomic.Uint64
	nRounds    atomic.Uint64
}

var (
	_ engine.Processor         = (*Processor)(nil)
	_ engine.ContextProcessor  = (*Processor)(nil)
	_ engine.ExecCountRestorer = (*Processor)(nil)
)

// New wraps inner in the given fault regime under seed.
func New(inner engine.Processor, seed int64, regime Regime) *Processor {
	if regime.OutlierFactor <= 0 {
		regime.OutlierFactor = 10
	}
	if regime.MaxPreFaults <= 0 {
		regime.MaxPreFaults = 2
	}
	if regime.LieFactor <= 0 {
		regime.LieFactor = 2
	}
	return &Processor{
		inner:   inner,
		seed:    seed,
		regime:  regime,
		rounds:  make(map[uint64]uint64),
		pending: make(map[uint64]*roundPlan),
	}
}

// Ledger returns the injected-fault counts so far.
func (p *Processor) Ledger() Ledger {
	return Ledger{
		Transients: p.transients.Load(),
		Hangs:      p.hangs.Load(),
		Outliers:   p.outliers.Load(),
		Stuck:      p.stuck.Load(),
		Drifted:    p.drifted.Load(),
		Lies:       p.lies.Load(),
		Rounds:     p.nRounds.Load(),
	}
}

// NumPorts delegates to the inner processor.
func (p *Processor) NumPorts() int { return p.inner.NumPorts() }

// Rmax delegates to the inner processor.
func (p *Processor) Rmax() float64 { return p.inner.Rmax() }

// Fingerprint combines the inner processor's fingerprint with the
// fault configuration: corrupted measurements cached under a chaos
// run must never be served to a fault-free one (or vice versa).
func (p *Processor) Fingerprint() string {
	inner := "processor"
	if f, ok := p.inner.(interface{ Fingerprint() string }); ok {
		inner = f.Fingerprint()
	}
	r := p.regime
	fp := fmt.Sprintf("%s|chaos:v1 seed=%d transient=%g hang=%g/%s pre=%d outlier=%gx%g stuck=%g drift=%g/%d",
		inner, p.seed, r.TransientRate, r.HangRate, r.HangDuration, r.MaxPreFaults,
		r.OutlierRate, r.OutlierFactor, r.StuckRate, r.DriftAmplitude, r.DriftPeriod)
	// The lie segment only appears when lying is configured, so caches
	// written by lie-free regimes keep their pre-existing fingerprint.
	if r.LieRate > 0 || len(r.LieExact) > 0 {
		fp += fmt.Sprintf(" lie=%gx%g min=%d exact=%s",
			r.LieRate, r.LieFactor, r.LieMinDistinct, strings.Join(r.LieExact, ","))
	}
	return fp
}

// RestoreExecCount fast-forwards the kernel's round counter (and the
// inner processor's execution counter) to the given count, discarding
// any half-served plan: a resumed process rebuilds the round's fault
// plan from scratch, exactly as the interrupted process built it.
func (p *Processor) RestoreExecCount(kernel []string, executions uint64) {
	kh := zensim.KernelHash(kernel)
	p.mu.Lock()
	if executions > p.rounds[kh] {
		p.rounds[kh] = executions
		delete(p.pending, kh)
	}
	p.mu.Unlock()
	if r, ok := p.inner.(engine.ExecCountRestorer); ok {
		r.RestoreExecCount(kernel, executions)
	}
}

// planFor draws the fault plan of round n of the kernel with hash kh.
// The draw order is fixed (hang, transients, outlier, stuck), so the
// plan depends only on (seed, kernel, round).
func (p *Processor) planFor(kh, n uint64) *roundPlan {
	r := p.regime
	rng := rand.New(rand.NewSource(zensim.ExecSeed(p.seed^chaosSalt, kh, n)))
	pl := &roundPlan{}
	pl.hang = rng.Float64() < r.HangRate
	for pl.pre < r.MaxPreFaults && rng.Float64() < r.TransientRate {
		pl.pre++
	}
	pl.outlier = rng.Float64() < r.OutlierRate
	pl.stuck = rng.Float64() < r.StuckRate
	return pl
}

// Execute implements engine.Processor. Injected hangs block for their
// full duration; use ExecuteContext for cancellable execution.
func (p *Processor) Execute(kernel []string, iterations int) (engine.Counters, error) {
	return p.ExecuteContext(context.Background(), kernel, iterations)
}

// ExecuteContext implements engine.ContextProcessor: it serves the
// current round's pre-execution faults one per call, then delegates
// to the inner processor and applies the round's counter corruption.
func (p *Processor) ExecuteContext(ctx context.Context, kernel []string, iterations int) (engine.Counters, error) {
	kh := zensim.KernelHash(kernel)

	p.mu.Lock()
	pl, ok := p.pending[kh]
	if !ok {
		pl = p.planFor(kh, p.rounds[kh])
		p.pending[kh] = pl
	}
	hang := pl.hang
	pl.hang = false // a hang blocks the round's first attempt only
	transient := pl.pre > 0
	if transient {
		pl.pre--
	}
	p.mu.Unlock()

	if hang {
		p.hangs.Add(1)
		if err := sleepCtx(ctx, p.regime.HangDuration); err != nil {
			return engine.Counters{}, err
		}
	}
	if transient {
		p.transients.Add(1)
		return engine.Counters{}, engine.Transient(fmt.Errorf("chaos: injected transient error"))
	}

	c, err := p.innerExecute(ctx, kernel, iterations)
	if err != nil {
		// Not ours: the round is not consumed, so a real failure does
		// not desynchronize the fault stream from the inner one.
		return engine.Counters{}, err
	}

	p.mu.Lock()
	n := p.rounds[kh]
	p.rounds[kh] = n + 1
	delete(p.pending, kh)
	p.mu.Unlock()
	p.nRounds.Add(1)

	if p.isLiar(kernel, kh) {
		p.lies.Add(1)
		c.Cycles *= p.regime.LieFactor
	}
	if pl.outlier {
		p.outliers.Add(1)
		c.Cycles *= p.regime.OutlierFactor
	}
	if pl.stuck {
		p.stuck.Add(1)
		c.Ops = 0
		for i := range c.FPPortOps {
			c.FPPortOps[i] = 0
		}
		for i := range c.PortOps {
			c.PortOps[i] = 0
		}
	}
	if a := p.regime.DriftAmplitude; a != 0 && p.regime.DriftPeriod > 0 {
		p.drifted.Add(1)
		c.Cycles *= 1 + a*math.Sin(2*math.Pi*float64(n)/float64(p.regime.DriftPeriod))
	}
	return c, nil
}

// isLiar reports whether the kernel lies consistently under this
// regime. The decision is per-kernel-static: forced by LieExact, or
// drawn once from the kernel's round-0 lie stream — never from the
// per-round plan — so it holds for every execution of the kernel,
// including re-measurements.
func (p *Processor) isLiar(kernel []string, kh uint64) bool {
	r := p.regime
	if len(r.LieExact) > 0 {
		key := kernelCanonicalKey(kernel)
		for _, k := range r.LieExact {
			if k == key {
				return true
			}
		}
		return false
	}
	if r.LieRate <= 0 {
		return false
	}
	if r.LieMinDistinct > 0 && distinctCount(kernel) < r.LieMinDistinct {
		return false
	}
	rng := rand.New(rand.NewSource(zensim.ExecSeed(p.seed^lieSalt, kh, 0)))
	return rng.Float64() < r.LieRate
}

// kernelCanonicalKey recovers the canonical experiment key of a
// flattened kernel (the inverse of engine.KernelOf up to multiset
// identity).
func kernelCanonicalKey(kernel []string) string {
	e := make(portmodel.Experiment, len(kernel))
	for _, k := range kernel {
		e[k]++
	}
	return engine.CanonicalKey(e)
}

// distinctCount counts distinct instructions in a kernel.
func distinctCount(kernel []string) int {
	seen := make(map[string]bool, len(kernel))
	for _, k := range kernel {
		seen[k] = true
	}
	return len(seen)
}

// innerExecute prefers the inner processor's cancellable form.
func (p *Processor) innerExecute(ctx context.Context, kernel []string, iterations int) (engine.Counters, error) {
	if cp, ok := p.inner.(engine.ContextProcessor); ok {
		return cp.ExecuteContext(ctx, kernel, iterations)
	}
	return p.inner.Execute(kernel, iterations)
}

// sleepCtx blocks for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
