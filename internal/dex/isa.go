// Package dex models the Dalvik executable side of the stack: a compact
// register-based bytecode ISA, an assembler for it, a container of methods,
// and the verifier. A File is the only form of a program: the interpreter
// dispatches over each Method's Code and charges one dex-image read per
// interpreted bytecode (data *reads* in the paper's accounting) against a
// mapping sized by Size, the layout a dalvik-cache image of the file would
// have. Nothing lays those bytes out: no model reads them.
//
// The ISA is a faithful miniature of Dalvik's: 16 virtual registers per
// frame, three-address arithmetic, array/field access, object allocation,
// static invokes, and conditional branches.
package dex

import "fmt"

// Op is a bytecode opcode.
type Op uint8

// Opcodes.
const (
	OpNop   Op = iota
	OpConst    // vA := imm16 (sign-extended)
	OpMove     // vA := vB
	OpAdd      // vA := vB + vC
	OpSub      // vA := vB - vC
	OpMul      // vA := vB * vC
	// OpDiv and OpRem pin a deliberate divergence from real Dalvik: a zero
	// divisor yields 0 instead of throwing ArithmeticException. The
	// simulator has no exception machinery (a throw would abort the
	// workload model anyway), so "caught exception, result 0" is the
	// modelled behaviour. The interpreter implements exactly this, in
	// interpreted and compiled activations alike, and
	// TestDivRemByZeroYieldsZero in internal/dalvik locks it down.
	OpDiv      // vA := vB / vC (0 divisor yields 0; see above)
	OpRem      // vA := vB % vC (0 divisor yields 0; see above)
	OpAnd      // vA := vB & vC
	OpOr       // vA := vB | vC
	OpXor      // vA := vB ^ vC
	OpShl      // vA := vB << (vC & 63)
	OpShr      // vA := vB >> (vC & 63)
	OpAddI     // vA := vB + imm8 (C as signed immediate)
	OpIfEq     // if vA == vB branch by int8 offset in C
	OpIfNe     // if vA != vB ...
	OpIfLt     // if vA < vB ...
	OpIfGe     // if vA >= vB ...
	OpGoto     // unconditional branch by imm16 offset
	OpNewArray // vA := new array of length vB (elements int32)
	OpArrayLen // vA := len(vB)
	OpAGet     // vA := arr(vB)[vC]
	OpAPut     // arr(vB)[vC] := vA
	OpNewObj   // vA := new object with B fields
	OpIGet     // vA := obj(vB).field[C]
	OpIPut     // obj(vB).field[C] := vA
	OpInvoke   // call method #imm; args v0..v(A-1) of callee frame copied from vB...
	OpMoveRes  // vA := last return value
	OpReturn   // return vA
	OpRetVoid  // return 0
	numOps
)

// NumOps is the number of defined opcodes; interpreters size their dispatch
// tables with it.
const NumOps = int(numOps)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMove: "move", OpAdd: "add",
	OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem", OpAnd: "and",
	OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpAddI: "addi",
	OpIfEq: "if_eq", OpIfNe: "if_ne", OpIfLt: "if_lt", OpIfGe: "if_ge",
	OpGoto: "goto", OpNewArray: "new_array", OpArrayLen: "array_len",
	OpAGet: "aget", OpAPut: "aput", OpNewObj: "new_obj", OpIGet: "iget",
	OpIPut: "iput", OpInvoke: "invoke", OpMoveRes: "move_result",
	OpReturn: "return", OpRetVoid: "return_void",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// NumRegs is the fixed per-frame virtual register file size.
const NumRegs = 16

// Instr is one fixed-width (4-byte) instruction: opcode and three operand
// bytes. Immediate-carrying forms pack a 16-bit value into B:C.
type Instr struct {
	Op      Op
	A, B, C uint8
}

// Imm returns the signed 16-bit immediate packed into B:C.
func (i Instr) Imm() int16 { return int16(uint16(i.B)<<8 | uint16(i.C)) }

// BranchOff returns the signed 8-bit branch offset of a conditional branch
// (packed into C, leaving A and B free for the compared registers).
func (i Instr) BranchOff() int8 { return int8(i.C) }

// WithBranchOff packs off into C.
func (i Instr) WithBranchOff(off int8) Instr {
	i.C = uint8(off)
	return i
}

// WithImm packs imm into B:C.
func (i Instr) WithImm(imm int16) Instr {
	i.B = uint8(uint16(imm) >> 8)
	i.C = uint8(uint16(imm))
	return i
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpConst, OpGoto, OpInvoke:
		return fmt.Sprintf("%s v%d, #%d", i.Op, i.A, i.Imm())
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe:
		return fmt.Sprintf("%s v%d, v%d, %+d", i.Op, i.A, i.B, i.BranchOff())
	case OpAddI:
		return fmt.Sprintf("%s v%d, v%d, #%d", i.Op, i.A, i.B, int8(i.C))
	default:
		return fmt.Sprintf("%s v%d, v%d, v%d", i.Op, i.A, i.B, i.C)
	}
}

// Method is one bytecode method.
type Method struct {
	Name string
	// In is the number of argument registers (arguments arrive in
	// v0..vIn-1).
	In   int
	Code []Instr
}

// File is a dex container: an ordered set of methods.
type File struct {
	Name    string
	Methods []*Method

	index map[string]int
}

// NewFile returns an empty container.
func NewFile(name string) *File {
	return &File{Name: name, index: make(map[string]int)}
}

// Add appends a method. Duplicate names are an error.
func (f *File) Add(m *Method) error {
	if _, dup := f.index[m.Name]; dup {
		return fmt.Errorf("dex: duplicate method %q in %s", m.Name, f.Name)
	}
	f.index[m.Name] = len(f.Methods)
	f.Methods = append(f.Methods, m)
	return nil
}

// Named returns a view of f under another name that shares f's methods and
// index. Both must be treated as read-only from then on: adding a method to
// either would corrupt the other.
func (f *File) Named(name string) *File {
	return &File{Name: name, Methods: f.Methods, index: f.index}
}

// MethodIndex returns the index of the named method, or -1.
func (f *File) MethodIndex(name string) int {
	i, ok := f.index[name]
	if !ok {
		return -1
	}
	return i
}

// headerBytes is the per-file header of a dalvik-cache image (magic, method
// count and image size).
const headerBytes = 16

// perMethodHeader is the per-method header of a dalvik-cache image (code
// offset, length and argument count).
const perMethodHeader = 12

// Size reports the byte size of the file's dalvik-cache image: the header,
// the method table and one 4-byte word per instruction. It sizes the
// "<name>@classes.dex" mapping and the class-loading walk over it.
func (f *File) Size() uint64 {
	n := uint64(headerBytes + perMethodHeader*len(f.Methods))
	for _, m := range f.Methods {
		n += uint64(4 * len(m.Code))
	}
	return n
}
