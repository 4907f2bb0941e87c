// Package zensim simulates the AMD Zen+ core of the paper's case
// study (§4). It substitutes for the Ryzen 5 2600X test system: the
// measurement harness executes steady-state kernels against it and
// reads back exactly the sparse performance counters Zen+ provides —
// noisy cycles, retired instructions, and the PMCx0C1 "Retired Uops"
// counter that actually counts macro-ops (§4.1.1) — plus the per-pipe
// FP counters. An optional Intel-like mode additionally exposes
// per-port µop counters so that the original uops.info algorithm
// (which Zen+ cannot run) can be executed as a baseline.
//
// Two backends are provided:
//
//   - the analytic backend computes steady-state throughput from the
//     ground-truth port mapping via the exact LP semantics, combined
//     with the frontend/retire bottleneck of 5 macro-ops per cycle,
//     the microcode sequencer (4 ops/cycle, stalling decode), and the
//     documented Zen+ anomalies;
//   - the cycle backend is a discrete cycle-level model with a
//     greedy oldest-first scheduler, used for the scheduler-fidelity
//     ablation (DESIGN.md E12).
package zensim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"zenport/internal/engine"
	"zenport/internal/isa"
	"zenport/internal/portmodel"
	"zenport/internal/zen"
)

// Backend selects the execution model.
type Backend int

// Backends.
const (
	// Analytic follows the port mapping model exactly (plus
	// documented anomalies); this is the default and the setting
	// under which the inference pipeline is evaluated.
	Analytic Backend = iota
	// Cycle is the discrete cycle-level model with a greedy
	// scheduler.
	Cycle
)

// Config configures a simulated machine.
type Config struct {
	// Noise is the relative standard deviation of cycle
	// measurements. The default (via NewMachine) is 0.3%.
	Noise float64
	// Seed seeds the measurement-noise RNG.
	Seed int64
	// PerPortCounters enables Intel-like per-port µop counters.
	PerPortCounters bool
	// DisableAnomalies turns off all Zen+ quirks, yielding an ideal
	// port-mapping-model machine (useful for tests and ablations).
	DisableAnomalies bool
	// Backend selects the execution model.
	Backend Backend
}

// Machine is a simulated Zen+ processor.
//
// Noise is drawn from a per-execution RNG derived from (global seed,
// kernel hash, per-kernel repetition index) rather than a shared
// stream, so concurrent measurement of distinct kernels — the batch
// engine's worker pool — observes exactly the same noise as a
// sequential run: the draws for one kernel depend only on that
// kernel and on how many times it has run before, never on what else
// runs in between.
type Machine struct {
	db  *zen.DB
	cfg Config

	mu sync.Mutex
	// seq counts prior executions per kernel hash; it feeds the
	// repetition index into the per-execution RNG seed so repeated
	// runs of one kernel still vary (bimodal instability, §4.1.2).
	seq map[uint64]uint64
}

var _ engine.Processor = (*Machine)(nil)

// NewMachine builds a machine over the given database.
func NewMachine(db *zen.DB, cfg Config) *Machine {
	if cfg.Noise == 0 {
		cfg.Noise = 0.003
	}
	if cfg.Noise < 0 {
		cfg.Noise = 0
	}
	return &Machine{db: db, cfg: cfg, seq: make(map[uint64]uint64)}
}

// KernelHash is the FNV-64a identity of a kernel (scheme keys joined
// with NUL separators), the key of the per-kernel repetition counter.
// It is exported for layers that must share the machine's per-kernel
// identity — the chaos fault injector keys its per-kernel round
// counters with it so RestoreExecCount addresses the same streams.
func KernelHash(kernel []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, k := range kernel {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= prime64
		}
		h *= prime64 // the NUL separator; h ^= 0 leaves h unchanged
	}
	return h
}

// ExecSeed derives the deterministic RNG seed for execution index n of
// the kernel with hash kh under the global seed: a splitmix64 chain
// over (seed, kh, n). This is the per-execution RNG discipline that
// makes measurements worker-count invariant; it is exported so other
// deterministic per-(kernel, index) decision streams (fault plans) can
// reuse it with their own seed salt.
func ExecSeed(seed int64, kh, n uint64) int64 {
	z := splitmix64(uint64(seed))
	z = splitmix64(z ^ kh)
	z = splitmix64(z ^ n)
	return int64(z)
}

// kernelRNG returns the RNG for one execution of kernel, advancing the
// kernel's repetition counter. Its stream is that of
// rand.NewSource(ExecSeed(...)); simSource serves it without seeding
// the stdlib's 607-word register.
func (m *Machine) kernelRNG(kernel []string) *rand.Rand {
	kh := KernelHash(kernel)
	m.mu.Lock()
	n := m.seq[kh]
	m.seq[kh] = n + 1
	m.mu.Unlock()
	var src simSource
	src.Seed(ExecSeed(m.cfg.Seed, kh, n))
	return rand.New(&src)
}

// RestoreExecCount fast-forwards kernel's repetition counter to
// executions, as if the kernel had already run that many times. The
// persistence layer calls this when warming the cache from a journal:
// a resumed process starts with zero counters, and without the
// fast-forward a re-measured kernel would draw the noise of a first
// execution instead of the noise the interrupted run would have drawn
// — breaking the byte-identical-resume guarantee. The counter only
// moves forward; executions already performed in this process are
// never rewound.
func (m *Machine) RestoreExecCount(kernel []string, executions uint64) {
	kh := KernelHash(kernel)
	m.mu.Lock()
	if executions > m.seq[kh] {
		m.seq[kh] = executions
	}
	m.mu.Unlock()
}

// Fingerprint identifies the simulated processor configuration for
// the persistence layer: results journaled under a different
// fingerprint come from a different machine and must not be reused.
func (m *Machine) Fingerprint() string {
	return fmt.Sprintf("zensim:v1 backend=%d seed=%d noise=%g perport=%t anomalies=%t",
		m.cfg.Backend, m.cfg.Seed, m.cfg.Noise, m.cfg.PerPortCounters, !m.cfg.DisableAnomalies)
}

// splitmix64 is the finalizer of the SplitMix64 generator; it
// scatters structured inputs (small seeds, similar hashes) across
// the full 64-bit state space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NumPorts returns the port count of the Zen+ model.
func (m *Machine) NumPorts() int { return zen.NumPorts }

// Rmax returns the 5-IPC frontend/retire bottleneck.
func (m *Machine) Rmax() float64 { return zen.Rmax }

// DB returns the underlying database.
func (m *Machine) DB() *zen.DB { return m.db }

// Execute implements engine.Processor.
func (m *Machine) Execute(kernel []string, iterations int) (engine.Counters, error) {
	if iterations < 1 {
		return engine.Counters{}, fmt.Errorf("zensim: iterations must be positive")
	}
	specs := make([]*zen.Spec, len(kernel))
	for i, key := range kernel {
		sp, ok := m.db.Get(key)
		if !ok {
			return engine.Counters{}, fmt.Errorf("zensim: unknown scheme %q", key)
		}
		specs[i] = sp
	}

	rng := m.kernelRNG(kernel)

	var perIter float64
	var portLoads [zen.NumPorts]float64
	switch m.cfg.Backend {
	case Cycle:
		perIter, portLoads = m.cycleExecute(specs)
	default:
		perIter, portLoads = m.analyticExecute(specs, rng)
	}

	cycles := perIter * float64(iterations)
	// On Zen+ the "Retired Uops" counter counts macro-ops (§4.1.1);
	// the Intel-like per-port mode counts true µops, as the original
	// uops.info algorithm requires.
	ops := 0
	for _, sp := range specs {
		if m.cfg.PerPortCounters {
			ops += sp.Uops.TotalUops()
		} else {
			ops += sp.MacroOps
		}
	}

	if m.cfg.Noise > 0 {
		cycles *= 1 + rng.NormFloat64()*m.cfg.Noise
	}
	if cycles < 0 {
		cycles = 0
	}

	c := engine.Counters{
		Cycles:       cycles,
		Instructions: uint64(len(kernel) * iterations),
		Ops:          uint64(ops * iterations),
	}
	// FP pipe counters (ports 0..3) are always available on Zen+.
	fp := make([]float64, 4)
	for k := 0; k < 4; k++ {
		fp[k] = portLoads[k] * float64(iterations)
	}
	c.FPPortOps = fp
	if m.cfg.PerPortCounters {
		all := make([]float64, zen.NumPorts)
		for k := range all {
			all[k] = portLoads[k] * float64(iterations)
		}
		c.PortOps = all
	}
	return c, nil
}

// analyticExecute computes the steady-state inverse throughput of one
// kernel iteration plus the per-port µop loads of an optimal
// schedule.
func (m *Machine) analyticExecute(specs []*zen.Spec, rng *rand.Rand) (float64, [zen.NumPorts]float64) {
	// Accumulate occupancy-weighted µop mass per port set.
	var buf [16]portMass
	mass := buf[:0]
	for _, sp := range specs {
		for _, u := range sp.Uops {
			if v := float64(u.Count) * sp.Occupancy; v > 0 {
				mass = addMass(mass, u.Ports, v)
			}
		}
	}
	portTime, loads := optimalLoads(mass)

	// Frontend: directly-decoded macro-ops flow at Rmax per cycle;
	// microcoded instructions switch to the MS at MSRate ops per
	// cycle while the rest of the frontend stalls (§4.4).
	direct, msOps := 0, 0
	for _, sp := range specs {
		if sp.MSOps > 0 {
			msOps += sp.MSOps
		} else {
			direct += sp.MacroOps
		}
	}
	frontend := float64(direct)/zen.Rmax + float64(msOps)/zen.MSRate

	t := portTime
	if frontend > t {
		t = frontend
	}
	if !m.cfg.DisableAnomalies {
		t += m.anomalyExtra(specs, rng)
	}
	return t, loads
}

// portMass is the occupancy-weighted µop mass of one port set.
type portMass struct {
	ps portmodel.PortSet
	v  float64
}

// addMass adds v to the mass of ps, appending an entry for a new port
// set.
func addMass(mass []portMass, ps portmodel.PortSet, v float64) []portMass {
	for i := range mass {
		if mass[i].ps == ps {
			mass[i].v += v
			return mass
		}
	}
	return append(mass, portMass{ps, v})
}

// anomalyExtra models the Zen+ behaviours of §4.1–§4.3 that fall
// outside the port mapping model. It returns additional cycles per
// kernel iteration.
func (m *Machine) anomalyExtra(specs []*zen.Spec, rng *rand.Rand) float64 {
	mixed := false
	for _, sp := range specs {
		if sp.Key() != specs[0].Key() {
			mixed = true
			break
		}
	}

	extra := 0.0
	for _, sp := range specs {
		a := sp.Scheme.Attr
		switch {
		case a.Has(isa.AttrImulAnomaly):
			// §4.3: imul mixed with ALU ops runs slower than any
			// port assignment explains (4×add + imul ≈ 1.5 cycles).
			if mixed && m.othersUseALU(specs, sp) {
				extra += 0.25
			}
		case a.Has(isa.AttrVecMulSlow):
			// §4.3: vpmuldq experiments run slower than their port
			// usage implies. The slowdown grows with the amount of
			// co-scheduled work, so simple pairs (as used by the
			// §4.2 equivalence filter) still look clean while the
			// CEGAR-generated experiments do not.
			if others := len(specs) - countKey(specs, sp.Key()); others >= 2 {
				extra += 0.08 * float64(others-1)
			}
		case a.Has(isa.AttrXferInconsistent):
			// §4.3: vmovd shows resource conflicts that depend
			// inconsistently on the partner instructions; they only
			// materialize once at least two partners compete.
			if mixed && len(specs) >= 3 {
				extra += m.xferConflict(specs)
			}
		case a.Has(isa.AttrThreeRead):
			// §4.2: three-read FP ops occupy the data lines of a
			// third FP port, which then has to idle.
			if mixed && m.othersUseFP(specs, sp) {
				extra += 1.0 / 3.0
			}
		case a.Has(isa.AttrHardwired):
			// §4.1.2: hardwired operands create dependency chains.
			extra += 0.5
		}
		// §4.2: unstable-pair instructions flip between fast and
		// slow runs when benchmarked with others; §4.1.2: 64-bit
		// immediate movs are unreliable even alone.
		if a.Has(isa.AttrUnstablePair) && mixed || a.Has(isa.AttrMov64Imm) {
			if rng.Intn(2) == 1 {
				extra += 0.35
			}
		}
	}
	return extra
}

// countKey counts kernel slots holding the given scheme key.
func countKey(specs []*zen.Spec, key string) int {
	n := 0
	for _, sp := range specs {
		if sp.Key() == key {
			n++
		}
	}
	return n
}

// othersUseALU reports whether any other non-multiply instruction in
// the kernel has a µop admitting a scalar ALU port. Multiplies do not
// interfere with each other — two imul forms measure perfectly
// additive, which is why they end up in the same Table 1 class.
func (m *Machine) othersUseALU(specs []*zen.Spec, self *zen.Spec) bool {
	for _, sp := range specs {
		if sp.Key() == self.Key() || sp.Scheme.Attr.Has(isa.AttrImulAnomaly) {
			continue
		}
		for _, u := range sp.Uops {
			if u.Ports&zen.ALU != 0 {
				return true
			}
		}
	}
	return false
}

// othersUseFP reports whether any other instruction uses an FP pipe.
func (m *Machine) othersUseFP(specs []*zen.Spec, self *zen.Spec) bool {
	for _, sp := range specs {
		if sp.Key() == self.Key() {
			continue
		}
		for _, u := range sp.Uops {
			if u.Ports&zen.VALU != 0 {
				return true
			}
		}
	}
	return false
}

// xferConflict derives a deterministic but partner-dependent penalty
// for vmovd-style transfers: some partner sets conflict, others do
// not, with no pattern expressible in the port mapping model.
func (m *Machine) xferConflict(specs []*zen.Spec) float64 {
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i] = sp.Key()
	}
	slices.Sort(keys)
	h := fnv.New32a()
	for _, k := range slices.Compact(keys) {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte{0})
	}
	if h.Sum32()%2 == 1 {
		return 0.3
	}
	return 0
}

// optimalLoads computes the bottleneck value max_Q mass(Q)/|Q| and an
// optimal per-port load vector achieving it. The value comes from
// portmodel.DenseBottleneck, the kernel the compiled port model
// evaluates with; masses are integer µop counts times integer
// occupancies, so it equals portmodel.Bottleneck's bit for bit. The
// load vector is built with a water-filling pass: port sets are
// processed from most constrained to least constrained, each
// spreading its mass to equalize the loads of its admissible ports.
// optimalLoads reorders mass.
func optimalLoads(mass []portMass) (float64, [zen.NumPorts]float64) {
	var sos [1 << zen.NumPorts]float64
	var union portmodel.PortSet
	for _, e := range mass {
		union |= e.ps
		sos[e.ps] = e.v
	}
	_, best := portmodel.DenseBottleneck(sos[:], union)

	// Water-filling distribution, highest-pressure port sets first
	// (pressure = mass per admissible port). Flooded sets place
	// before flexible µops, so µops that can evade a flooded port do
	// evade — which is what the per-port counters of real hardware
	// show in steady state. Ties break toward smaller, then
	// lower-numbered sets, a total order over distinct port sets.
	pressure := func(e portMass) float64 { return e.v / float64(e.ps.Size()) }
	for i := 1; i < len(mass); i++ {
		for j := i; j > 0; j-- {
			a, b := mass[j-1], mass[j]
			pa, pb := pressure(a), pressure(b)
			less := pb > pa ||
				(pb == pa && b.ps.Size() < a.ps.Size()) ||
				(pb == pa && b.ps.Size() == a.ps.Size() && b.ps < a.ps)
			if less {
				mass[j-1], mass[j] = b, a
			} else {
				break
			}
		}
	}
	var loads [zen.NumPorts]float64
	var portBuf, levelBuf [zen.NumPorts]int
	for _, e := range mass {
		remaining := e.v
		ports := e.ps.Ports(portBuf[:])
		for remaining > 1e-12 {
			// Find the lowest-loaded admissible port and the next
			// level above it.
			low := ports[0]
			for _, p := range ports {
				if loads[p] < loads[low] {
					low = p
				}
			}
			// All ports at the lowest level share the next chunk.
			level := levelBuf[:0]
			next := -1.0
			for _, p := range ports {
				if loads[p] <= loads[low]+1e-12 {
					level = append(level, p)
				} else if next < 0 || loads[p] < next {
					next = loads[p]
				}
			}
			var chunk float64
			if next < 0 {
				chunk = remaining
			} else {
				chunk = (next - loads[low]) * float64(len(level))
				if chunk > remaining {
					chunk = remaining
				}
			}
			share := chunk / float64(len(level))
			for _, p := range level {
				loads[p] += share
			}
			remaining -= chunk
		}
	}
	return best, loads
}
