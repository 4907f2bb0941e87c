package zen

import (
	"math"
	"strings"
	"testing"

	"zenport/internal/isa"
	"zenport/internal/portmodel"
)

func TestBuildIsDeterministicAndDuplicateFree(t *testing.T) {
	db1 := Build()
	db2 := Build()
	if db1.Len() != db2.Len() {
		t.Fatalf("non-deterministic size: %d vs %d", db1.Len(), db2.Len())
	}
	k1, k2 := db1.Keys(), db2.Keys()
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("key order differs at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
}

func TestDatabaseScale(t *testing.T) {
	db := Build()
	if db.Len() < 800 {
		t.Fatalf("database too small: %d schemes", db.Len())
	}
	t.Logf("database has %d schemes", db.Len())
}

func TestGroundTruthValid(t *testing.T) {
	db := Build()
	if err := db.Truth().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range db.Specs() {
		if sp.MacroOps < 1 {
			t.Errorf("%s: macro-ops %d < 1", sp.Key(), sp.MacroOps)
		}
		if sp.Occupancy < 1 {
			t.Errorf("%s: occupancy %v < 1", sp.Key(), sp.Occupancy)
		}
		// Integral occupancies keep every µop mass an exact integer, so
		// the simulator's dense bottleneck kernel sums them without
		// rounding in any order.
		if sp.Occupancy != math.Trunc(sp.Occupancy) {
			t.Errorf("%s: occupancy %v is not an integer", sp.Key(), sp.Occupancy)
		}
		if sp.Scheme.Attr.Has(isa.AttrNoPorts) && len(sp.Uops) != 0 {
			t.Errorf("%s: no-port instruction has µops", sp.Key())
		}
		if !sp.Scheme.Attr.Has(isa.AttrNoPorts) && len(sp.Uops) == 0 {
			t.Errorf("%s: port-using instruction has no µops", sp.Key())
		}
	}
}

func TestPaperTable2GroundTruth(t *testing.T) {
	db := Build()
	cases := []struct {
		key  string
		want portmodel.Usage
	}{
		{"add GPR[32], GPR[32]", u1(ALU)},
		{"vpor XMM, XMM, XMM", u1(VALU)},
		{"vpaddd XMM, XMM, XMM", u1(VADD)},
		{"vminps XMM, XMM, XMM", u1(FPMUL)},
		{"vbroadcastss XMM, XMM", u1(SHUF)},
		{"vpaddsw XMM, XMM, XMM", u1(VADDS)},
		{"vaddps XMM, XMM, XMM", u1(FPADD)},
		{"mov GPR[32], MEM[32]", u1(LOAD)},
		{"vpslld XMM, XMM, XMM", u1(VSHIFT)},
		{"vroundps XMM, XMM, IMM[8]", u1(FPROUND)},
		{"mov MEM[32], GPR[32]", cat(u1(STORE), u1(ALU))},
		{"vmovapd MEM[128], XMM", cat(u1(STORE), u1(VSHIFT))},
		{"imul GPR[32], GPR[32]", u1(IMULP)},
		{"vpmuldq XMM, XMM, XMM", u1(VIMUL)},
		{"vmovd XMM, GPR[32]", u1(XFER)},
	}
	for _, c := range cases {
		sp, ok := db.Get(c.key)
		if !ok {
			t.Errorf("missing scheme %q", c.key)
			continue
		}
		if !sp.Uops.Equal(c.want) {
			t.Errorf("%s: µops %v, want %v", c.key, sp.Uops, c.want)
		}
	}
}

func TestVpcmpPortCounts(t *testing.T) {
	// §4.2: vpcmpgtq has 1 port, vpcmpeqq 2 ports, vpcmpgtb 3 ports.
	db := Build()
	want := map[string]int{
		"vpcmpgtq XMM, XMM, XMM": 1,
		"vpcmpeqq XMM, XMM, XMM": 2,
		"vpcmpgtb XMM, XMM, XMM": 3,
	}
	for key, n := range want {
		sp := db.MustGet(key)
		if len(sp.Uops) != 1 || sp.Uops[0].Ports.Size() != n {
			t.Errorf("%s: %v, want single µop with %d ports", key, sp.Uops, n)
		}
	}
}

func TestDoublePumped256(t *testing.T) {
	db := Build()
	x := db.MustGet("vpcmpeqq XMM, XMM, XMM")
	y := db.MustGet("vpcmpeqq YMM, YMM, YMM")
	if y.MacroOps != 2*x.MacroOps {
		t.Fatalf("ymm macro-ops %d, want %d", y.MacroOps, 2*x.MacroOps)
	}
	if y.Uops.TotalUops() != 2*x.Uops.TotalUops() {
		t.Fatalf("ymm µops %d, want %d", y.Uops.TotalUops(), 2*x.Uops.TotalUops())
	}
	// Same µop kinds, double count (§4.4).
	if len(y.Uops) != len(x.Uops) || y.Uops[0].Ports != x.Uops[0].Ports {
		t.Fatalf("ymm µop kinds differ: %v vs %v", y.Uops, x.Uops)
	}
}

func TestMemoryFormsAddLoadUop(t *testing.T) {
	db := Build()
	reg := db.MustGet("add GPR[32], GPR[32]")
	mem := db.MustGet("add GPR[32], MEM[32]")
	if mem.Uops.TotalUops() != reg.Uops.TotalUops()+1 {
		t.Fatalf("mem form has %d µops, reg form %d", mem.Uops.TotalUops(), reg.Uops.TotalUops())
	}
	found := false
	for _, u := range mem.Uops {
		if u.Ports == LOAD {
			found = true
		}
	}
	if !found {
		t.Fatal("memory form lacks load µop on [4,5]")
	}
	// Macro-op count does not grow: loads are fused on Zen+ (§4.1.1).
	if mem.MacroOps != reg.MacroOps {
		t.Fatalf("mem form macro-ops %d != reg form %d", mem.MacroOps, reg.MacroOps)
	}
}

func TestRMWForms(t *testing.T) {
	db := Build()
	// §4.4: add MEM[32], GPR[32] = ALU + store + extra AGU µop for
	// <= 32 bit; 64-bit forms have no AGU µop.
	m32 := db.MustGet("add MEM[32], GPR[32]")
	if !m32.Uops.Equal(cat(u1(ALU), u1(STORE), u1(AGU))) {
		t.Fatalf("add m32: %v", m32.Uops)
	}
	m64 := db.MustGet("add MEM[64], GPR[64]")
	if !m64.Uops.Equal(cat(u1(ALU), u1(STORE))) {
		t.Fatalf("add m64: %v", m64.Uops)
	}
}

func TestLoadingMovsArePureLoads(t *testing.T) {
	db := Build()
	for _, key := range []string{"mov GPR[32], MEM[32]", "vmovaps XMM, MEM[128]", "vmovdqa YMM, MEM[256]"} {
		sp := db.MustGet(key)
		for _, u := range sp.Uops {
			if u.Ports != LOAD {
				t.Errorf("%s: unexpected non-load µop %v", key, u)
			}
		}
	}
}

func TestMicrocodedSpecs(t *testing.T) {
	db := Build()
	bsf := db.MustGet("bsf GPR[64], GPR[64]")
	if bsf.MSOps == 0 || !bsf.Scheme.Attr.Has(isa.AttrMicrocoded) {
		t.Fatal("bsf should be microcoded")
	}
	if bsf.MacroOps != 8 {
		t.Fatalf("bsf macro-ops %d, want 8", bsf.MacroOps)
	}
	vph := db.MustGet("vphaddw XMM, XMM, XMM")
	if vph.MSOps != 4 || vph.MacroOps != 4 {
		t.Fatalf("vphaddw: MSOps=%d MacroOps=%d", vph.MSOps, vph.MacroOps)
	}
}

func TestAttrFunnelGroupsNonEmpty(t *testing.T) {
	db := Build()
	counts := map[string]int{}
	for _, sp := range db.Specs() {
		a := sp.Scheme.Attr
		switch {
		case a.Has(isa.AttrControlFlow):
			counts["controlflow"]++
		case a.Has(isa.AttrSystem):
			counts["system"]++
		case a.Has(isa.AttrInputDependent):
			counts["inputdep"]++
		case a.Has(isa.AttrNoPorts):
			counts["noports"]++
		case a.Has(isa.AttrNonPipelined):
			counts["nonpipelined"]++
		case a.Has(isa.AttrMov64Imm):
			counts["mov64imm"]++
		case a.Has(isa.AttrHardwired):
			counts["hardwired"]++
		case a.Has(isa.AttrUnstablePair):
			counts["unstablepair"]++
		case a.Has(isa.AttrThreeRead):
			counts["threeread"]++
		case a.Has(isa.AttrMicrocoded):
			counts["microcoded"]++
		}
	}
	for _, g := range []string{"controlflow", "system", "inputdep", "noports", "nonpipelined", "mov64imm", "hardwired", "unstablepair", "threeread", "microcoded"} {
		if counts[g] == 0 {
			t.Errorf("attribute group %s is empty", g)
		}
	}
	t.Logf("funnel groups: %v", counts)
}

func TestBlockingClassCandidateCounts(t *testing.T) {
	// Count single-µop, measurement-clean register schemes per port
	// set: these are the blocking-instruction candidates of Table 1.
	db := Build()
	bad := isa.AttrControlFlow | isa.AttrSystem | isa.AttrInputDependent |
		isa.AttrNoPorts | isa.AttrNonPipelined | isa.AttrMov64Imm |
		isa.AttrHardwired | isa.AttrUnstablePair | isa.AttrThreeRead |
		isa.AttrMicrocoded
	counts := map[portmodel.PortSet]int{}
	for _, sp := range db.Specs() {
		if sp.Scheme.Attr&bad != 0 {
			continue
		}
		if sp.Uops.TotalUops() != 1 {
			continue
		}
		counts[sp.Uops[0].Ports]++
	}
	// All 13 classes of Table 1 must be represented.
	for _, ps := range []portmodel.PortSet{ALU, VALU, VADD, FPMUL, SHUF, VADDS, FPADD, LOAD, VSHIFT, VIMUL, IMULP, FPROUND, XFER} {
		if counts[ps] == 0 {
			t.Errorf("no blocking candidate for port set %v", ps)
		}
	}
	// The ALU class must be by far the largest (Table 1: 242 of 563).
	if counts[ALU] < counts[VALU] || counts[ALU] < 100 {
		t.Errorf("ALU class has %d candidates; want the dominant class", counts[ALU])
	}
	t.Logf("blocking candidates per class: %v", counts)
}

func TestSchemeKeysWellFormed(t *testing.T) {
	db := Build()
	for _, sp := range db.Specs() {
		key := sp.Key()
		if key != sp.Scheme.Key() {
			t.Fatalf("stored key %q, scheme key %q", key, sp.Scheme.Key())
		}
		if strings.TrimSpace(key) == "" {
			t.Fatal("empty key")
		}
		if strings.Contains(key, "  ") {
			t.Fatalf("malformed key %q", key)
		}
	}
	if _, ok := db.Get("definitely-not-a-scheme"); ok {
		t.Fatal("Get returned a spec for a bogus key")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet should panic for unknown key")
		}
	}()
	db.MustGet("definitely-not-a-scheme")
}
