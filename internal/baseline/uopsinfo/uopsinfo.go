// Package uopsinfo implements the original uops.info port mapping
// inference algorithm of Abel & Reineke (ASPLOS 2019), Section 5.1 /
// Algorithm 1 of Ritter & Hack (ASPLOS 2024).
//
// The algorithm requires hardware counters for µops executed *per
// port*. AMD's Zen family does not provide them — that is the entire
// premise of the paper — so this baseline only runs against the
// simulator's Intel-like counter mode. Attempting to run it on a
// processor without per-port counters fails with
// ErrNoPerPortCounters, which is itself part of the reproduction: it
// demonstrates why the paper's algorithm is needed.
package uopsinfo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"zenport/internal/engine"
	"zenport/internal/portmodel"
)

// ErrNoPerPortCounters is returned when the processor does not expose
// per-port µop counters.
var ErrNoPerPortCounters = errors.New("uopsinfo: processor has no per-port µop counters (use the paper's algorithm instead)")

// Result is the outcome of the inference.
type Result struct {
	// Mapping is the inferred port mapping.
	Mapping *portmodel.Mapping
	// Blocking lists the selected blocking instructions per port
	// set.
	Blocking map[portmodel.PortSet]string
	// Skipped lists schemes that could not be characterized.
	Skipped []string
}

// Infer runs the uops.info algorithm over the given scheme keys,
// measuring through g under ctx.
func Infer(ctx context.Context, g *engine.Engine, keys []string) (*Result, error) {
	numPorts := g.P.NumPorts()

	// Step 1: benchmark each instruction alone; read per-port
	// counters to find blocking instructions.
	type single struct {
		key   string
		uops  float64
		ports portmodel.PortSet
		tinv  float64
	}
	singles := make(map[string]single, len(keys))
	blocking := map[portmodel.PortSet]string{}
	var sortedKeys []string
	sortedKeys = append(sortedKeys, keys...)
	sort.Strings(sortedKeys)

	for _, key := range sortedKeys {
		r, err := g.Measure(ctx, portmodel.Exp(key))
		if err != nil {
			return nil, err
		}
		if r.PortOps == nil {
			return nil, ErrNoPerPortCounters
		}
		var ps portmodel.PortSet
		for k := 0; k < numPorts && k < len(r.PortOps); k++ {
			if r.PortOps[k] > 0.05 {
				ps |= 1 << uint(k)
			}
		}
		s := single{key: key, uops: r.OpsPerIteration, ports: ps, tinv: r.InvThroughput}
		singles[key] = s
		// Blocking instruction: exactly one µop.
		if math.Abs(s.uops-1) < 0.1 && ps != 0 {
			if _, dup := blocking[ps]; !dup {
				blocking[ps] = key
			}
		}
	}
	if len(blocking) == 0 {
		return nil, fmt.Errorf("uopsinfo: no blocking instructions found")
	}

	// Order blocking instructions by ascending port-set size.
	type blk struct {
		key string
		pu  portmodel.PortSet
	}
	var blks []blk
	for pu, key := range blocking {
		blks = append(blks, blk{key: key, pu: pu})
	}
	sort.Slice(blks, func(a, b int) bool {
		if blks[a].pu.Size() != blks[b].pu.Size() {
			return blks[a].pu.Size() < blks[b].pu.Size()
		}
		return blks[a].pu < blks[b].pu
	})

	// Step 2: Algorithm 1 per scheme.
	res := &Result{Mapping: portmodel.NewMapping(numPorts), Blocking: blocking}
	for _, key := range sortedKeys {
		s := singles[key]
		uopsOf := int(math.Round(s.uops))
		if uopsOf == 0 {
			res.Mapping.Set(key, portmodel.Usage{})
			continue
		}
		found := map[portmodel.PortSet]int{}
		ok := true
		for _, b := range blks {
			k := blockCount(b.pu.Size(), uopsOf, s.tinv)
			e := portmodel.Experiment{}
			e[b.key] += k
			e[key]++ // b.key may equal key: the blocker blocks itself
			r, err := g.Measure(ctx, e)
			if err != nil {
				return nil, err
			}
			if r.PortOps == nil {
				return nil, ErrNoPerPortCounters
			}
			onPu := 0.0
			for _, p := range b.pu.Ports() {
				onPu += r.PortOps[p]
			}
			surplus := onPu - float64(k)
			n := int(math.Round(surplus))
			if n < 0 || math.Abs(surplus-float64(n)) > 0.3 {
				ok = false
				break
			}
			for pu, cnt := range found {
				if pu != b.pu && pu.SubsetOf(b.pu) {
					n -= cnt
				}
			}
			if n > 0 {
				found[b.pu] = n
			}
		}
		if !ok {
			res.Skipped = append(res.Skipped, key)
			continue
		}
		var usage portmodel.Usage
		for pu, n := range found {
			usage = append(usage, portmodel.Uop{Ports: pu, Count: n})
		}
		res.Mapping.Set(key, usage.Normalize())
	}
	return res, nil
}

// blockCount is the uops.info k heuristic (§2.3 of Ritter & Hack).
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
