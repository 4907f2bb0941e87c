package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"zenport/internal/portmodel"
)

// blockerDesc is one usable blocking instruction for stage 4.
type blockerDesc struct {
	key string
	pu  portmodel.PortSet
}

// runResult is one characterization run's outcome for one scheme.
type runResult struct {
	found map[portmodel.PortSet]int
	ok    bool
}

// stage4 characterizes every remaining scheme against the blocking
// suite without per-port µop counters (§3.1, §4.4): flooding the
// ports pu with k blocking instructions, the µops of the instruction
// under investigation that cannot evade pu each add 1/|pu| cycles, so
//
//	µops of i on pu = (tp⁻¹([k×B, i]) − tp⁻¹([k×B])) · |pu|.
//
// Blocking instructions are applied in ascending port-set size and
// previously found µops on proper subsets are subtracted (Algorithm
// 1). The stage runs characterizeRuns times with fresh measurements
// and accepts a result only when a majority of runs agree (§4.4).
//
// votes are the completed runs of a resumed stage 4. The checkpoint
// is rewritten after every run.
func (p *Pipeline) stage4(ctx context.Context, rep *Report, votes []map[string]charRunRecord) error {
	blockers := p.stage4Blockers(rep)

	// Collect the schemes to characterize: not excluded, and
	// characterizable against this blocking suite.
	blockerSet := blockerKeys(blockers)
	var todo []string
	for key := range rep.Info {
		if rep.Excluded[key] == "" && p.characterizable(rep, blockerSet, key) {
			todo = append(todo, key)
		}
	}
	sort.Strings(todo)

	if len(blockers) == 0 {
		// Degraded stage 3 (or a pathological ISA) left no usable
		// blocking suite. Emit what we do have — the blocker mapping
		// and the no-port schemes — and flag everything else
		// Unresolved instead of failing the whole run; a resumed run
		// retries exactly these schemes.
		p.logf("stage 4: no usable blocking instructions; leaving %d scheme(s) unresolved", len(todo))
		for _, key := range todo {
			rep.Unresolved = appendUnique(rep.Unresolved, key)
		}
		sort.Strings(rep.Unresolved)
		rep.Final = p.assembleFinal(rep)
		return nil
	}

	results := make(map[string][]runResult, len(todo))

	for r := 0; r < characterizeRuns; r++ {
		if r < len(votes) && restoreRun(votes[r], todo, results) {
			p.logf("stage 4: run %d restored from checkpoint", r)
			continue
		}
		votes = votes[:r]
		// Run 0 shares cache generation 0 with stages 1–3; runs r>0
		// get fresh measurements. Naming generations explicitly —
		// rather than just clearing the cache — lets a resumed run land
		// in the same generation, and thus the same persisted
		// measurements, as the interrupted one.
		if err := p.characterizeRun(ctx, rep, todo, blockers, results, uint64(r), r == 0); err != nil {
			return err
		}
		votes = append(votes, runVotes(r, todo, results))
		if err := p.save(3, rep, votes); err != nil {
			return err
		}
	}

	for _, key := range p.voteCharacterization(rep, todo, results) {
		// A scheme whose runs never reached a majority is excluded
		// from the mapping (§4.4) *and* flagged Unresolved, so a
		// resumed run retries it with fresh measurements instead of
		// silently accepting the hole.
		rep.Excluded[key] = ExclCharUnstable
		rep.Unresolved = appendUnique(rep.Unresolved, key)
	}
	sort.Strings(rep.Unresolved)

	rep.Final = p.assembleFinal(rep)
	return nil
}

// blockerKeys returns the keys of a blocking suite as a set.
func blockerKeys(blockers []blockerDesc) map[string]bool {
	set := make(map[string]bool, len(blockers))
	for _, b := range blockers {
		set[b.key] = true
	}
	return set
}

// characterizable reports whether stage 4 can characterize key against
// the blocking suite blockerSet: a measured scheme that uses ports and
// is neither a blocker itself nor covered by the blocker mapping.
func (p *Pipeline) characterizable(rep *Report, blockerSet map[string]bool, key string) bool {
	info, ok := rep.Info[key]
	if !ok || info.NoPorts || blockerSet[key] {
		return false
	}
	_, isBlocked := rep.BlockerMapping.Usage[key]
	return !isBlocked
}

// characterizeRun is one characterization run over todo, measured
// under cache generation gen: it appends each scheme's outcome to
// results and, when keepWitnesses is set, records the witnesses of
// every scheme it characterizes.
func (p *Pipeline) characterizeRun(ctx context.Context, rep *Report, todo []string, blockers []blockerDesc, results map[string][]runResult, gen uint64, keepWitnesses bool) error {
	p.H.BeginGeneration(gen)
	// Prefetch the run's entire scheme×blocker grid — every flood
	// kernel and every flood+scheme kernel — as one batch. The grid is
	// computable up front (block counts depend only on stage-1 data),
	// duplicates coalesce in the engine, and characterizeOne below is
	// then answered from cache.
	var grid []portmodel.Experiment
	for _, key := range todo {
		info := rep.Info[key]
		for _, b := range blockers {
			k := blockCount(b.pu.Size(), info.UopsPostulated, info.TInv)
			grid = append(grid,
				portmodel.Experiment{b.key: k},
				portmodel.Experiment{b.key: k, key: 1})
		}
	}
	if _, err := p.H.MeasureBatch(ctx, grid); err != nil {
		return err
	}
	for _, key := range todo {
		found, witnesses, ok, err := p.characterizeOne(ctx, rep, key, blockers)
		if err != nil {
			return err
		}
		results[key] = append(results[key], runResult{found: found, ok: ok})
		if keepWitnesses && ok {
			rep.CharWitnesses[key] = witnesses
		}
	}
	return nil
}

// voteCharacterization applies the §4.4 majority vote over the runs'
// results and commits the winners into rep.Characterized (plus the
// spurious-µop flag). It returns the keys whose runs never produced a
// majority; the caller decides how those degrade.
func (p *Pipeline) voteCharacterization(rep *Report, todo []string, results map[string][]runResult) []string {
	var failed []string
	for _, key := range todo {
		rs := results[key]
		bestCount, bestIdx := 0, -1
		for i, a := range rs {
			if !a.ok {
				continue
			}
			n := 0
			for _, b := range rs {
				if b.ok && sameFound(a.found, b.found) {
					n++
				}
			}
			if n > bestCount {
				bestCount, bestIdx = n, i
			}
		}
		if bestIdx == -1 || bestCount*2 <= characterizeRuns {
			failed = append(failed, key)
			continue
		}
		usage := foundToUsage(rs[bestIdx].found)
		rep.Characterized[key] = usage
		// Spurious-µop detection (§4.4): more µops inferred than the
		// op counter plus the postulate explain — the microcode
		// sequencer artifact.
		if usage.TotalUops() > rep.Info[key].UopsPostulated {
			rep.Spurious = appendUnique(rep.Spurious, key)
		}
	}
	return failed
}

// assembleFinal builds the final mapping from the blocker mapping, the
// characterized schemes, and the no-port schemes. Unresolved schemes
// are simply absent — partial rather than wrong.
func (p *Pipeline) assembleFinal(rep *Report) *portmodel.Mapping {
	final := portmodel.NewMapping(p.H.P.NumPorts())
	for key, u := range rep.BlockerMapping.Usage {
		final.Set(key, u)
	}
	for key, u := range rep.Characterized {
		final.Set(key, u)
	}
	for key, info := range rep.Info {
		if info.NoPorts && rep.Excluded[key] == "" {
			final.Set(key, portmodel.Usage{})
		}
	}
	return final
}

// stage4Blockers selects the usable blockers from the CEGAR result:
// the proper blocking classes that survived §4.3, plus the first
// improper blocker to cover the store port, ordered by ascending
// port-set size.
func (p *Pipeline) stage4Blockers(rep *Report) []blockerDesc {
	var out []blockerDesc
	anom := map[string]bool{}
	for _, a := range rep.AnomalousBlockers {
		anom[a] = true
	}
	for _, cls := range rep.Classes {
		if anom[cls.Rep] || cls.Ports == 0 {
			continue
		}
		out = append(out, blockerDesc{key: cls.Rep, pu: cls.Ports})
	}
	// The storing mov blocks the store port (§4.4: "We use mov
	// MEM[32], GPR[32] to block the store port 5"): its own port is
	// the one of its non-tied µop, i.e. the port set not shared with
	// a proper blocker.
	if rep.BlockerMapping != nil {
		key := improperBlockers[0]
		if usage, ok := rep.BlockerMapping.Get(key); ok {
			if own, ok := improperOwnPorts(rep, usage); ok {
				out = append(out, blockerDesc{key: key, pu: own})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].pu.Size() != out[b].pu.Size() {
			return out[a].pu.Size() < out[b].pu.Size()
		}
		return out[a].pu < out[b].pu
	})
	return out
}

// improperOwnPorts extracts the µop of an improper blocker that does
// not coincide with a proper blocking class (the store µop).
func improperOwnPorts(rep *Report, usage portmodel.Usage) (portmodel.PortSet, bool) {
	classPorts := map[portmodel.PortSet]bool{}
	for _, cls := range rep.Classes {
		if cls.Ports != 0 {
			classPorts[cls.Ports] = true
		}
	}
	for _, u := range usage {
		if !classPorts[u.Ports] {
			return u.Ports, true
		}
	}
	return 0, false
}

// characterizeOne runs Algorithm 1 (adapted per §3.1) for one scheme.
// Its measurements were prefetched by characterizeRun's grid batch,
// so the engine answers from cache.
func (p *Pipeline) characterizeOne(ctx context.Context, rep *Report, key string, blockers []blockerDesc) (map[portmodel.PortSet]int, []Witness, bool, error) {
	info := rep.Info[key]
	found := map[portmodel.PortSet]int{}
	var witnesses []Witness

	for _, b := range blockers {
		k := blockCount(b.pu.Size(), info.UopsPostulated, info.TInv)
		flood := portmodel.Experiment{b.key: k}
		withI := portmodel.Experiment{b.key: k, key: 1}
		rOnly, err := p.H.Measure(ctx, flood)
		if err != nil {
			return nil, nil, false, err
		}
		rWith, err := p.H.Measure(ctx, withI)
		if err != nil {
			return nil, nil, false, err
		}
		tOnly, tWith := rOnly.InvThroughput, rWith.InvThroughput
		raw := (tWith - tOnly) * float64(b.pu.Size())
		n := int(math.Round(raw))
		if n < 0 || math.Abs(raw-float64(n)) > 0.3 {
			// Fractional or negative surplus: outside the model.
			return nil, nil, false, nil
		}
		surplus := n
		for pu, cnt := range found {
			if pu != b.pu && pu.SubsetOf(b.pu) {
				surplus -= cnt
			}
		}
		if surplus > 0 {
			found[b.pu] = surplus
			witnesses = append(witnesses, Witness{
				Exp:    withI,
				TInv:   tWith,
				TOther: tOnly,
				Claim: fmt.Sprintf("%d µop(s) cannot evade %s: flooding with %d×%s adds %0.3f cycles",
					surplus, b.pu, k, b.key, tWith-tOnly),
			})
		}
	}
	return found, witnesses, true, nil
}

// blockCount is the uops.info heuristic for the number of blocking
// instructions (§2.3):
//
//	k = min(100, max(10, |pu|·µopsOf(i), 2·|pu|·max(1, ⌊tp⁻¹([i])⌋)))
func blockCount(puSize, uops int, tinv float64) int {
	k := 10
	if v := puSize * uops; v > k {
		k = v
	}
	if v := 2 * puSize * maxInt(1, int(tinv)); v > k {
		k = v
	}
	if k > 100 {
		k = 100
	}
	return k
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sameFound compares two found-µop maps.
func sameFound(a, b map[portmodel.PortSet]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// foundToUsage converts a found-µop map into a Usage.
func foundToUsage(found map[portmodel.PortSet]int) portmodel.Usage {
	var u portmodel.Usage
	for ps, n := range found {
		u = append(u, portmodel.Uop{Ports: ps, Count: n})
	}
	return u.Normalize()
}
