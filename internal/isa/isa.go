// Package isa defines x86-64 instruction schemes (instruction forms)
// in the style of uops.info: a mnemonic with abstract operand slots
// like ⟨GPR[32]⟩ or ⟨MEM[128]⟩. Schemes abstract over concrete
// register choices; the port mapping model is defined over schemes.
//
// The package is purely structural: it knows nothing about any
// particular microarchitecture. Package zen instantiates a database
// of schemes together with AMD Zen+ ground-truth behaviour.
package isa

import (
	"fmt"
	"strings"
)

// OperandKind classifies an operand slot of an instruction scheme.
type OperandKind int

// Operand kinds.
const (
	GPR OperandKind = iota // general-purpose register, Width bits
	XMM                    // 128-bit vector register
	YMM                    // 256-bit vector register
	MEM                    // memory operand, Width bits
	IMM                    // immediate, Width bits
	AH                     // high-byte register (ah/bh/ch/dh)
)

func (k OperandKind) String() string {
	switch k {
	case GPR:
		return "GPR"
	case XMM:
		return "XMM"
	case YMM:
		return "YMM"
	case MEM:
		return "MEM"
	case IMM:
		return "IMM"
	case AH:
		return "AH"
	}
	return fmt.Sprintf("OperandKind(%d)", int(k))
}

// Operand is one operand slot of a scheme.
type Operand struct {
	Kind  OperandKind
	Width int // bits; 0 for XMM/YMM (implied 128/256)
}

// String renders the operand in uops.info style, e.g. "GPR[32]".
func (o Operand) String() string {
	switch o.Kind {
	case XMM, YMM, AH:
		return o.Kind.String()
	default:
		return fmt.Sprintf("%s[%d]", o.Kind, o.Width)
	}
}

// Attr is a bitset of scheme attributes relevant to measurement and
// inference. They encode the exclusion criteria of Sections 4.1–4.2
// of the paper.
type Attr uint32

// Scheme attributes.
const (
	// AttrControlFlow marks branches/calls (removed up front).
	AttrControlFlow Attr = 1 << iota
	// AttrSystem marks system instructions (removed up front).
	AttrSystem
	// AttrInputDependent marks input-dependent timing (div etc.,
	// removed up front).
	AttrInputDependent
	// AttrNoPorts marks instructions resolved without execution
	// ports: nops and eliminated 32/64-bit reg-reg movs (§4.1.2).
	AttrNoPorts
	// AttrNonPipelined marks FP ops slower than the model permits:
	// division, square roots, approximate reciprocals (§4.1.2).
	AttrNonPipelined
	// AttrMov64Imm marks 64-bit-immediate movs with unreliable
	// measurements (§4.1.2).
	AttrMov64Imm
	// AttrHardwired marks schemes reading/writing hardwired or
	// ah..dh operands, unmeasurable without dependencies (§4.1.2).
	AttrHardwired
	// AttrUnstablePair marks schemes with unstable measurements when
	// benchmarked together with other instructions: cmov, AES,
	// vcvt*, double-precision FP multiplication (§4.2).
	AttrUnstablePair
	// AttrThreeRead marks FP/vector ops with three read operands
	// (FMA, some blends) that occupy a third port's data lines
	// (§4.2).
	AttrThreeRead
	// AttrMicrocoded marks instructions expanded by the microcode
	// sequencer (§4.4); their measurements show spurious µops.
	AttrMicrocoded
	// AttrCommon marks schemes that occur in compiled SPEC-like
	// binaries; the Figure 5 evaluation samples from these (§4.5).
	AttrCommon
	// AttrImulAnomaly marks the scalar-multiply throughput anomaly
	// of §4.3 (mixtures with ALU ops run slower than the model).
	AttrImulAnomaly
	// AttrVecMulSlow marks vpmuldq-style elaborate vector multiplies
	// whose experiments run slower than their port usage implies
	// (§4.3).
	AttrVecMulSlow
	// AttrXferInconsistent marks vector<->GPR transfers (vmovd) with
	// inconsistent resource conflicts (§4.3).
	AttrXferInconsistent
)

// Has reports whether all bits of q are set.
func (a Attr) Has(q Attr) bool { return a&q == q }

// Scheme is an instruction scheme (instruction form).
type Scheme struct {
	Mnemonic string
	Operands []Operand
	// Extension is the ISA extension, e.g. "BASE", "AVX", "AVX2".
	Extension string
	Attr      Attr
}

// Key returns the canonical scheme string used as the instruction key
// throughout the repository, e.g. "add GPR[32], GPR[32]".
func (s *Scheme) Key() string {
	if len(s.Operands) == 0 {
		return s.Mnemonic
	}
	parts := make([]string, len(s.Operands))
	for i, o := range s.Operands {
		parts[i] = o.String()
	}
	return s.Mnemonic + " " + strings.Join(parts, ", ")
}

// Op is a convenience constructor for operands.
func Op(kind OperandKind, width int) Operand { return Operand{Kind: kind, Width: width} }

// R returns a GPR operand of the given width.
func R(width int) Operand { return Operand{Kind: GPR, Width: width} }

// M returns a MEM operand of the given width.
func M(width int) Operand { return Operand{Kind: MEM, Width: width} }

// I returns an IMM operand of the given width.
func I(width int) Operand { return Operand{Kind: IMM, Width: width} }

// X returns an XMM operand.
func X() Operand { return Operand{Kind: XMM} }

// Y returns a YMM operand.
func Y() Operand { return Operand{Kind: YMM} }
