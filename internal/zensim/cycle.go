package zensim

import (
	"sort"

	"zenport/internal/portmodel"
	"zenport/internal/zen"
)

// cycUop is one in-flight micro-operation of the cycle backend.
type cycUop struct {
	ports portmodel.PortSet
	occ   float64
	seq   int // issue order, for oldest-first scheduling
}

// cycDecoded is one pre-decoded instruction of the kernel stream.
type cycDecoded struct {
	macroOps int
	msOps    int
	uops     []cycUop
}

// cycleExecute runs the kernel on the discrete cycle-level backend: a
// decode frontend (Rmax macro-ops per cycle, with the microcode
// sequencer taking over for microcoded instructions), a bounded
// scheduler window, and a greedy oldest-first port allocator that
// prefers less-contended ports. Non-pipelined µops keep their port
// busy for Occupancy cycles.
//
// The backend exists for the scheduler-fidelity ablation (DESIGN.md
// E12): unlike the analytic backend it does not solve the LP, so its
// throughput can fall short of the port-mapping-model optimum.
func (m *Machine) cycleExecute(specs []*zen.Spec) (float64, [zen.NumPorts]float64) {
	const (
		iters      = 64
		windowSize = 160
	)

	stream := make([]cycDecoded, len(specs))
	for i, sp := range specs {
		var us []cycUop
		for _, u := range sp.Uops {
			for c := 0; c < u.Count; c++ {
				us = append(us, cycUop{ports: u.Ports, occ: sp.Occupancy})
			}
		}
		stream[i] = cycDecoded{macroOps: sp.MacroOps, msOps: sp.MSOps, uops: us}
	}

	var (
		window      []cycUop
		busy        = make([]float64, zen.NumPorts)
		loads       [zen.NumPorts]float64
		seq         int
		cycle       int
		nextInstr   int
		msStall     float64 // cycles the frontend is still stalled by the MS
		totalInstrs = iters * len(specs)
	)

	for nextInstr < totalInstrs || len(window) > 0 {
		cycle++
		if cycle > 10_000_000 {
			break // safety net for pathological inputs
		}

		// Frontend.
		if msStall > 0 {
			msStall--
		} else {
			budget := zen.Rmax
			for budget > 0 && nextInstr < totalInstrs && len(window)+8 < windowSize {
				d := stream[nextInstr%len(specs)]
				if d.msOps > 0 {
					// The MS emits this instruction's ops at MSRate
					// per cycle while regular decode stalls.
					msStall = float64(d.msOps)/zen.MSRate - 1
					budget = 0
				} else {
					if float64(d.macroOps) > budget {
						break
					}
					budget -= float64(d.macroOps)
				}
				for _, u := range d.uops {
					u.seq = seq
					seq++
					window = append(window, u)
				}
				nextInstr++
			}
		}

		// Backend: assign ready µops to free ports, oldest first,
		// preferring the least-contended admissible port.
		order := make([]int, len(window))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return window[order[a]].seq < window[order[b]].seq })
		assigned := make([]bool, len(window))
		for _, wi := range order {
			u := window[wi]
			bestPort, bestDemand := -1, 0
			for _, p := range u.ports.Ports() {
				if busy[p] > 0 {
					continue
				}
				d := m.cycPortDemand(window, assigned, p)
				if bestPort == -1 || d < bestDemand {
					bestPort, bestDemand = p, d
				}
			}
			if bestPort == -1 {
				continue
			}
			busy[bestPort] = u.occ
			assigned[wi] = true
			loads[bestPort]++
		}
		kept := window[:0]
		for i := range window {
			if !assigned[i] {
				kept = append(kept, window[i])
			}
		}
		window = kept

		for p := range busy {
			if busy[p] > 0 {
				busy[p]--
				if busy[p] < 0 {
					busy[p] = 0
				}
			}
		}
	}

	per := float64(cycle) / float64(iters)
	for p := range loads {
		loads[p] /= float64(iters)
	}
	return per, loads
}

// cycPortDemand counts unassigned window µops admitting port p.
func (m *Machine) cycPortDemand(window []cycUop, assigned []bool, p int) int {
	n := 0
	for i := range window {
		if !assigned[i] && window[i].ports.Has(p) {
			n++
		}
	}
	return n
}
