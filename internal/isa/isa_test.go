package isa

import "testing"

func TestSchemeKey(t *testing.T) {
	cases := []struct {
		s    Scheme
		want string
	}{
		{Scheme{Mnemonic: "add", Operands: []Operand{R(32), R(32)}}, "add GPR[32], GPR[32]"},
		{Scheme{Mnemonic: "vpor", Operands: []Operand{X(), X(), X()}}, "vpor XMM, XMM, XMM"},
		{Scheme{Mnemonic: "vpaddd", Operands: []Operand{Y(), Y(), M(256)}}, "vpaddd YMM, YMM, MEM[256]"},
		{Scheme{Mnemonic: "vroundps", Operands: []Operand{X(), X(), I(8)}}, "vroundps XMM, XMM, IMM[8]"},
		{Scheme{Mnemonic: "nop"}, "nop"},
		{Scheme{Mnemonic: "mov", Operands: []Operand{Op(AH, 8), R(8)}}, "mov AH, GPR[8]"},
	}
	for _, c := range cases {
		if got := c.s.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}

func TestAttrHas(t *testing.T) {
	a := AttrCommon | AttrMicrocoded
	if !a.Has(AttrCommon) || !a.Has(AttrMicrocoded) || a.Has(AttrSystem) {
		t.Fatal("Attr.Has wrong")
	}
	if !a.Has(AttrCommon | AttrMicrocoded) {
		t.Fatal("multi-bit Has wrong")
	}
}

func TestOperandKindString(t *testing.T) {
	for k, want := range map[OperandKind]string{
		GPR: "GPR", XMM: "XMM", YMM: "YMM", MEM: "MEM", IMM: "IMM", AH: "AH",
	} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
	if OperandKind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}
