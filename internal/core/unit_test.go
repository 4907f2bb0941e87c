package core

import (
	"reflect"
	"testing"
	"time"

	"zenport/internal/isa"
	"zenport/internal/persist"
	"zenport/internal/portmodel"
)

func TestPostulateUops(t *testing.T) {
	cases := []struct {
		scheme isa.Scheme
		macro  float64
		want   int
	}{
		// Plain register op: µops = macro-ops.
		{isa.Scheme{Mnemonic: "add", Operands: []isa.Operand{isa.R(32), isa.R(32)}}, 1, 1},
		// Memory source: +1.
		{isa.Scheme{Mnemonic: "add", Operands: []isa.Operand{isa.R(32), isa.M(32)}}, 1, 2},
		// 256-bit memory: +2.
		{isa.Scheme{Mnemonic: "vpaddd", Operands: []isa.Operand{isa.Y(), isa.Y(), isa.M(256)}}, 2, 4},
		// lea: excluded from the postulate.
		{isa.Scheme{Mnemonic: "lea", Operands: []isa.Operand{isa.R(64), isa.M(64)}}, 1, 1},
		// Loading mov: excluded.
		{isa.Scheme{Mnemonic: "mov", Operands: []isa.Operand{isa.R(32), isa.M(32)}}, 1, 1},
		{isa.Scheme{Mnemonic: "vmovaps", Operands: []isa.Operand{isa.X(), isa.M(128)}}, 1, 1},
		// Storing mov: +1 (the paper's deviation from the SOG).
		{isa.Scheme{Mnemonic: "mov", Operands: []isa.Operand{isa.M(32), isa.R(32)}}, 1, 2},
		// push: implicit memory operand.
		{isa.Scheme{Mnemonic: "push", Operands: []isa.Operand{isa.R(64)}}, 1, 2},
		// Microcoded with memory: macro-ops + 1.
		{isa.Scheme{Mnemonic: "bsf", Operands: []isa.Operand{isa.R(64), isa.M(64)}}, 8, 9},
	}
	for _, c := range cases {
		if got := postulateUops(c.scheme, c.macro); got != c.want {
			t.Errorf("postulateUops(%s, %v) = %d, want %d", c.scheme.Key(), c.macro, got, c.want)
		}
	}
}

func TestBlockCount(t *testing.T) {
	// k = min(100, max(10, |pu|·µops, 2·|pu|·max(1,⌊tp⌋))).
	cases := []struct {
		pu, uops int
		tinv     float64
		want     int
	}{
		{1, 1, 0.25, 10},
		{4, 3, 0.25, 12},
		{4, 1, 3.7, 24},
		{2, 60, 1, 100},
		{4, 9, 1, 36},
	}
	for _, c := range cases {
		if got := blockCount(c.pu, c.uops, c.tinv); got != c.want {
			t.Errorf("blockCount(%d,%d,%v) = %d, want %d", c.pu, c.uops, c.tinv, got, c.want)
		}
	}
}

func TestFoundToUsageAndSameFound(t *testing.T) {
	a := map[portmodel.PortSet]int{
		portmodel.MakePortSet(0, 1): 2,
		portmodel.MakePortSet(2):    1,
	}
	u := foundToUsage(a)
	if u.TotalUops() != 3 || len(u) != 2 {
		t.Fatalf("foundToUsage = %v", u)
	}
	b := map[portmodel.PortSet]int{
		portmodel.MakePortSet(2):    1,
		portmodel.MakePortSet(0, 1): 2,
	}
	if !sameFound(a, b) {
		t.Fatal("sameFound should be order-independent")
	}
	b[portmodel.MakePortSet(2)] = 2
	if sameFound(a, b) {
		t.Fatal("sameFound missed a difference")
	}
	if sameFound(a, map[portmodel.PortSet]int{}) {
		t.Fatal("sameFound missed a size difference")
	}
}

func TestHasHardwiredOperand(t *testing.T) {
	ah := isa.Scheme{Mnemonic: "add", Operands: []isa.Operand{isa.Op(isa.AH, 8), isa.Op(isa.AH, 8)}}
	if !hasHardwiredOperand(ah) {
		t.Fatal("AH operand not detected")
	}
	marked := isa.Scheme{Mnemonic: "mul", Operands: []isa.Operand{isa.R(32)}, Attr: isa.AttrHardwired}
	if !hasHardwiredOperand(marked) {
		t.Fatal("attribute not detected")
	}
	plain := isa.Scheme{Mnemonic: "add", Operands: []isa.Operand{isa.R(32), isa.R(32)}}
	if hasHardwiredOperand(plain) {
		t.Fatal("false positive")
	}
}

func TestExclusionReasonsDistinct(t *testing.T) {
	reasons := []ExclusionReason{
		ExclControlFlow, ExclSystem, ExclInputDependent, ExclUnstableAlone,
		ExclIrregularTP, ExclUnstablePaired, ExclCEGARAnomaly, ExclCharUnstable,
	}
	seen := map[ExclusionReason]bool{}
	for _, r := range reasons {
		if r == "" || seen[r] {
			t.Fatalf("duplicate or empty reason %q", r)
		}
		seen[r] = true
	}
}

func TestImproperOwnPorts(t *testing.T) {
	rep := &Report{Classes: []BlockClass{
		{Rep: "alu", Ports: portmodel.MakePortSet(6, 7, 8, 9)},
		{Rep: "shift", Ports: portmodel.MakePortSet(2)},
	}}
	usage := portmodel.Usage{
		{Ports: portmodel.MakePortSet(5), Count: 1},
		{Ports: portmodel.MakePortSet(6, 7, 8, 9), Count: 1},
	}
	own, ok := improperOwnPorts(rep, usage)
	if !ok || own != portmodel.MakePortSet(5) {
		t.Fatalf("improperOwnPorts = %v, %v", own, ok)
	}
	// All µops coincide with classes: no own port.
	usage = portmodel.Usage{{Ports: portmodel.MakePortSet(2), Count: 1}}
	if _, ok := improperOwnPorts(rep, usage); ok {
		t.Fatal("expected no own port")
	}
}

// TestSMTInstanceSkipsUnmeasuredImproper: a scheme list cut short can
// leave an improper blocker unmeasured in stage 1. The instance then
// leaves that blocker out instead of failing, and keeps the measured
// one with its two µops.
func TestSMTInstanceSkipsUnmeasuredImproper(t *testing.T) {
	p, _ := newZenPipeline(t, nil, 1)
	rep := &Report{
		Classes: []BlockClass{{Rep: "alu", PortCount: 4}},
		Info:    map[string]*SchemeInfo{improperBlockers[1]: {}},
	}
	inst := p.buildSMTInstance(rep)
	var improper []string
	for _, u := range inst.Uops {
		if u.Key == improperBlockers[0] {
			t.Fatalf("unmeasured improper blocker %q is in the instance: %+v", u.Key, inst.Uops)
		}
		if u.Key != "alu" {
			improper = append(improper, u.Key)
		}
	}
	if want := []string{improperBlockers[1], improperBlockers[1]}; !reflect.DeepEqual(improper, want) {
		t.Fatalf("improper µops = %v, want %v", improper, want)
	}
}

// TestOptionsAnswerKeyCoversEveryField: every Options field either
// changes answerKey, so a checkpoint written under another value is
// not resumed from, or sits on the answer-neutral list with its
// reason. A new field fails here until it is classified.
func TestOptionsAnswerKeyCoversEveryField(t *testing.T) {
	keyed := map[string][]func(*Options){
		"Epsilon":  {func(o *Options) { o.Epsilon = 0.03 }},
		"MaxSlack": {func(o *Options) { o.MaxSlack = 0.5 }},
		"SolverBudget": {
			func(o *Options) { o.SolverBudget.MaxConflicts = 1000 },
			func(o *Options) { o.SolverBudget.MaxPropagations = 1000 },
			func(o *Options) { o.SolverBudget.MaxDecisions = 1000 },
			func(o *Options) { o.SolverBudget.Deadline = time.Now() },
		},
	}
	ck, err := persist.NewCheckpointer(t.TempDir(), "fp")
	if err != nil {
		t.Fatal(err)
	}
	neutral := map[string]struct {
		why string
		set func(*Options)
	}{
		"Checkpointer": {"where progress is kept, not what it is", func(o *Options) { o.Checkpointer = ck }},
		"Resume":       {"whether kept progress is reused", func(o *Options) { o.Resume = true }},
		"Log":          {"progress lines only", func(o *Options) { o.Log = t.Logf }},
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, k := keyed[name]
		_, n := neutral[name]
		if k == n {
			t.Errorf("Options.%s: classify it as keyed (answerKey renders it) or answer-neutral (with a reason)", name)
		}
	}
	base := DefaultOptions().answerKey()
	for name, sets := range keyed {
		for i, set := range sets {
			o := DefaultOptions()
			set(&o)
			if o.answerKey() == base {
				t.Errorf("Options.%s (change %d) leaves answerKey at %q", name, i, base)
			}
		}
	}
	for name, f := range neutral {
		o := DefaultOptions()
		f.set(&o)
		if o.answerKey() != base {
			t.Errorf("answer-neutral Options.%s (%s) changes answerKey to %q", name, f.why, o.answerKey())
		}
	}
}
