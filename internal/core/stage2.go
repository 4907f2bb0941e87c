package core

import (
	"context"
	"fmt"
	"math"

	"zenport/internal/portmodel"
)

// stage2 filters equivalent blocking candidates (§3.2 step 3, §4.2):
// two single-µop candidates with equally sized port sets block the
// same ports iff their inverse throughputs are additive,
//
//	tp⁻¹([i,j]) = tp⁻¹([i]) + tp⁻¹([j]).
//
// Each candidate is compared against the current class
// representatives of its port-count group. Measurements that are
// unstable across repetitions, or that exceed the additive bound
// (impossible in the port mapping model: throughput is subadditive),
// expose the §4.2 problem instructions, which are excluded.
func (p *Pipeline) stage2(ctx context.Context, rep *Report) error {
	keys := p.candidateKeys(rep)
	classesByCount := map[int][]*BlockClass{}

	for _, key := range keys {
		info := rep.Info[key]
		group := classesByCount[info.PortCount]
		// Batch the candidate's full row of pair experiments against
		// the group's current representatives up front. The row may
		// measure past the first match — a speculative overshoot — but
		// the set of experiments depends only on the (deterministic)
		// candidate order, never on worker scheduling, so parallel and
		// sequential runs stay bit-identical.
		pairs := make([]portmodel.Experiment, len(group))
		for i, cls := range group {
			pairs[i] = portmodel.Experiment{key: 1, cls.Rep: 1}
		}
		rowRes, err := p.H.MeasureBatch(ctx, pairs)
		if err != nil {
			return err
		}
		placed := false
		bad := false
		for ci, cls := range group {
			repInfo := rep.Info[cls.Rep]
			pair := pairs[ci]
			r := rowRes[ci]
			if r.Spread > spreadThreshold {
				// Unstable when paired: cmov, AES, vcvt*, double FP
				// mul (§4.2).
				rep.Excluded[key] = ExclUnstablePaired
				bad = true
				break
			}
			additive := info.TInv + repInfo.TInv
			tol := p.Opts.Epsilon * 2
			if r.InvThroughput > additive+tol {
				// Super-additive throughput contradicts the model
				// (three-read FMA interference, §4.2).
				rep.Excluded[key] = ExclUnstablePaired
				bad = true
				break
			}
			if math.Abs(r.InvThroughput-additive) <= tol {
				cls.Members = append(cls.Members, key)
				cls.Witnesses = append(cls.Witnesses, Witness{
					Exp:  pair,
					TInv: r.InvThroughput,
					Claim: fmt.Sprintf("additive with %s (%0.3f ≈ %0.3f + %0.3f): same port set",
						cls.Rep, r.InvThroughput, info.TInv, repInfo.TInv),
				})
				placed = true
				break
			}
			// Not equivalent: record the separating witness on the
			// candidate's eventual class (see below).
		}
		if bad || placed {
			continue
		}
		// New class with this candidate as representative.
		cls := &BlockClass{Rep: key, PortCount: info.PortCount, Members: []string{key}}
		cls.Witnesses = append(cls.Witnesses, Witness{
			Exp:   portmodel.Exp(key),
			TInv:  info.TInv,
			Claim: fmt.Sprintf("single µop with %d port(s) (tp = %0.3f)", info.PortCount, info.TInv),
		})
		classesByCount[info.PortCount] = append(group, cls)
	}

	// Deterministic class order: descending port count, then by
	// representative key — the order of Table 1.
	var counts []int
	for c := range classesByCount {
		counts = append(counts, c)
	}
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	for _, c := range counts {
		rep.Classes = append(rep.Classes, deref(classesByCount[c])...)
	}
	for _, cls := range rep.Classes {
		rep.CandidatesFiltered += len(cls.Members)
	}
	return nil
}

func deref(in []*BlockClass) []BlockClass {
	out := make([]BlockClass, len(in))
	for i, c := range in {
		out[i] = *c
	}
	return out
}
