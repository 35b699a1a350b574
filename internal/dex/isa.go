// Package dex models the Dalvik executable side of the stack: a compact
// register-based bytecode ISA, an assembler for it, a container format that
// serializes to bytes (so interpreters genuinely fetch instruction words
// from the dex mapping — data *reads* in the paper's accounting), a
// verifier, and the dexopt optimization pass.
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

// Encode packs the instruction into 4 bytes.
func (i Instr) Encode() [4]byte { return [4]byte{byte(i.Op), i.A, i.B, i.C} }

// DecodeInstr unpacks 4 bytes into an instruction.
func DecodeInstr(b [4]byte) Instr {
	return Instr{Op: Op(b[0]), A: b[1], B: b[2], C: b[3]}
}

// DecodeCode decodes a serialized code region (4 bytes per instruction, as
// laid out by Serialize) into instructions. Interpreters call it once per
// method at load time so the dispatch loop fetches pre-decoded instructions
// instead of re-decoding the mapped image on every iteration; trailing bytes
// short of a full instruction word are ignored.
func DecodeCode(b []byte) []Instr {
	out := make([]Instr, len(b)/4)
	for i := range out {
		out[i] = DecodeInstr([4]byte{b[4*i], b[4*i+1], b[4*i+2], b[4*i+3]})
	}
	return out
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

// Method looks a method up by name.
func (f *File) Method(name string) (*Method, bool) {
	i, ok := f.index[name]
	if !ok {
		return nil, false
	}
	return f.Methods[i], true
}

// MethodIndex returns the index of the named method, or -1.
func (f *File) MethodIndex(name string) int {
	i, ok := f.index[name]
	if !ok {
		return -1
	}
	return i
}

// headerBytes is the serialized per-file header (magic + method count).
const headerBytes = 16

// perMethodHeader is the serialized per-method header (code offset+len+in).
const perMethodHeader = 12

// Size reports the serialized byte size.
func (f *File) Size() uint64 {
	n := uint64(headerBytes + perMethodHeader*len(f.Methods))
	for _, m := range f.Methods {
		n += uint64(4 * len(m.Code))
	}
	return n
}

// Serialize renders the container to bytes: header, method table, then
// 4-byte instruction words. The exact layout only needs to be stable — the
// interpreter reads instruction words out of the mapped image.
func (f *File) Serialize() []byte {
	out := make([]byte, 0, f.Size())
	out = append(out, 'd', 'e', 'x', '\n', '0', '3', '5', 0)
	out = appendU32(out, uint32(len(f.Methods)))
	out = appendU32(out, uint32(f.Size()))
	off := uint32(headerBytes + perMethodHeader*len(f.Methods))
	for _, m := range f.Methods {
		out = appendU32(out, off)
		out = appendU32(out, uint32(len(m.Code)))
		out = appendU32(out, uint32(m.In))
		off += uint32(4 * len(m.Code))
	}
	for _, m := range f.Methods {
		for _, ins := range m.Code {
			e := ins.Encode()
			out = append(out, e[:]...)
		}
	}
	return out
}

// CodeOffset returns the byte offset of method index mi's code within the
// serialized image; the interpreter uses it to fetch instruction words at
// their true addresses.
func (f *File) CodeOffset(mi int) uint64 {
	off := uint64(headerBytes + perMethodHeader*len(f.Methods))
	for i := 0; i < mi; i++ {
		off += uint64(4 * len(f.Methods[i].Code))
	}
	return off
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
