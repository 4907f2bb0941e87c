package core

import (
	"context"
	"math"
	"sort"
	"strings"

	"zenport/internal/isa"
	"zenport/internal/portmodel"
)

// stage1 benchmarks every scheme individually: op counts, the µop
// postulate, throughput, and the blocking-candidate test (§3.2 steps
// 1–2, §4.1). The per-scheme sweep runs as two measurement batches:
// all singleton experiments first, then the 8× confirmation kernels
// for schemes whose singleton throughput sits at the frontend bound.
func (p *Pipeline) stage1(ctx context.Context, rep *Report) error {
	rmax := p.H.P.Rmax()
	var keys []string
	for i := range p.Schemes {
		s := p.Schemes[i]
		key := s.Key()
		// Up-front removals based on ISA metadata, as the paper does
		// with the uops.info scheme list.
		switch {
		case s.Attr.Has(isa.AttrControlFlow):
			rep.Excluded[key] = ExclControlFlow
			continue
		case s.Attr.Has(isa.AttrSystem):
			rep.Excluded[key] = ExclSystem
			continue
		case s.Attr.Has(isa.AttrInputDependent):
			rep.Excluded[key] = ExclInputDependent
			continue
		case hasHardwiredOperand(s):
			// §4.1.2: operands hardwired or restricted to ah..dh
			// cannot be measured without dependency effects.
			rep.Excluded[key] = ExclIrregularTP
			continue
		}
		rep.Info[key] = &SchemeInfo{Scheme: s}
		keys = append(keys, key)
	}

	exps := make([]portmodel.Experiment, len(keys))
	for i, key := range keys {
		exps[i] = portmodel.Exp(key)
	}
	results, err := p.H.MeasureBatch(ctx, exps)
	if err != nil {
		return err
	}

	// The no-port confirmation kernels are decided by the singleton
	// results alone, so they form a second batch.
	var confirmKeys []string
	for i, key := range keys {
		if rmax > 0 && math.Abs(results[i].InvThroughput-1/rmax) <= p.Opts.Epsilon {
			confirmKeys = append(confirmKeys, key)
		}
	}
	confirmExps := make([]portmodel.Experiment, len(confirmKeys))
	for i, key := range confirmKeys {
		confirmExps[i] = portmodel.Experiment{key: 8}
	}
	confirmRes, err := p.H.MeasureBatch(ctx, confirmExps)
	if err != nil {
		return err
	}
	confirm := make(map[string]float64, len(confirmKeys))
	for i, key := range confirmKeys {
		confirm[key] = confirmRes[i].InvThroughput
	}

	for i, key := range keys {
		r := results[i]
		info := rep.Info[key]
		info.OpsMeasured = r.OpsPerIteration
		info.TInv = r.InvThroughput
		info.UopsPostulated = postulateUops(info.Scheme, r.OpsPerIteration)

		// Instability alone (mov of 64-bit immediates, §4.1.2): the
		// run-to-run spread exposes the bimodal behaviour.
		if r.Spread > spreadThreshold {
			rep.Excluded[key] = ExclUnstableAlone
			continue
		}

		// No-port instructions: nops and eliminated movs retire at
		// the frontend bound (§4.1.2). Confirm with a longer kernel
		// so a 1/Rmax-cycle coincidence cannot fool us.
		if t8, ok := confirm[key]; ok {
			if math.Abs(t8-8/rmax) <= 8*p.Opts.Epsilon {
				info.NoPorts = true
				continue
			}
		}

		// Blocking candidates execute as a single µop...
		if info.UopsPostulated != 1 {
			continue
		}
		// ...with a port count measurable as the plain throughput
		// (§3.2 step 2). Irregular values reveal non-pipelined or
		// otherwise out-of-model behaviour (§4.1.2).
		ports := 1 / r.InvThroughput
		rounded := math.Round(ports)
		if rounded < 1 || math.Abs(ports-rounded) > 0.15 {
			rep.Excluded[key] = ExclIrregularTP
			continue
		}
		info.PortCount = int(rounded)
		info.Candidate = true
		rep.Candidates++
	}
	return nil
}

// hasHardwiredOperand reports AH-register operands.
func hasHardwiredOperand(s isa.Scheme) bool {
	for _, o := range s.Operands {
		if o.Kind == isa.AH {
			return true
		}
	}
	// One-operand multiplies and sign-extensions accumulate into
	// hardwired registers; the ISA metadata marks them.
	return s.Attr.Has(isa.AttrHardwired)
}

// postulateUops applies the paper's macro-op→µop correspondence
// (§4.1.1): start from the counted macro-ops and add one µop per
// memory operand of at most 128 bits and two per 256-bit operand,
// excluding lea (address arithmetic only) and loading movs (loads go
// straight through the load ports).
func postulateUops(s isa.Scheme, opsMeasured float64) int {
	uops := int(math.Round(opsMeasured))
	if s.Mnemonic == "lea" {
		return uops
	}
	// Stack pushes access memory through an implicit operand (the
	// uops.info operand metadata records it; our scheme keys do not).
	if s.Mnemonic == "push" {
		uops++
	}
	for i, o := range s.Operands {
		if o.Kind != isa.MEM {
			continue
		}
		if isMovMnemonic(s.Mnemonic) && i > 0 {
			// Loading mov: the memory operand is the source.
			continue
		}
		if o.Width >= 256 {
			uops += 2
		} else {
			uops++
		}
	}
	return uops
}

// isMovMnemonic matches plain data movement (mov / vmov*), whose
// loading forms are excluded from the postulate's +1. Storing movs
// (memory destination, operand 0) do get the extra µop — the paper's
// deviation from AMD's SOG.
func isMovMnemonic(mn string) bool {
	return mn == "mov" || strings.HasPrefix(mn, "vmov")
}

// candidateKeys returns stage-1 candidates in deterministic order:
// preferred representatives first, then sorted keys.
func (p *Pipeline) candidateKeys(rep *Report) []string {
	var keys []string
	for key, info := range rep.Info {
		if info.Candidate && rep.Excluded[key] == "" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	rank := make(map[string]int, len(preferredReps))
	for i, k := range preferredReps {
		rank[k] = i + 1
	}
	sort.SliceStable(keys, func(a, b int) bool {
		ra, rb := rank[keys[a]], rank[keys[b]]
		if ra == 0 {
			ra = 1 << 20
		}
		if rb == 0 {
			rb = 1 << 20
		}
		return ra < rb
	})
	return keys
}
