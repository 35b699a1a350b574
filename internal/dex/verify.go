package dex

import "fmt"

// Verify checks the structural validity of every method in the file: opcode
// range, register bounds, branch targets inside the method, and invoke
// indices referencing real methods. It mirrors the Dalvik verifier's role;
// dalvik.Assemble runs it on every program the workloads load.
func Verify(f *File) error {
	// A dex image with no methods has nothing to execute: real dalvik
	// rejects it at load, and accepting it here would hand interpreters a
	// file whose method count they cannot safely divide or index by.
	if len(f.Methods) == 0 {
		return fmt.Errorf("dex: %s: no methods", f.Name)
	}
	for _, m := range f.Methods {
		if m.In < 0 || m.In > NumRegs {
			return fmt.Errorf("dex: %s.%s: bad arg count %d", f.Name, m.Name, m.In)
		}
		if len(m.Code) == 0 {
			return fmt.Errorf("dex: %s.%s: empty method", f.Name, m.Name)
		}
		for pc, ins := range m.Code {
			if ins.Op >= numOps {
				return fmt.Errorf("dex: %s.%s+%d: bad opcode %d", f.Name, m.Name, pc, ins.Op)
			}
			if err := verifyRegs(m, pc, ins); err != nil {
				return fmt.Errorf("dex: %s.%s: %v", f.Name, m.Name, err)
			}
			switch ins.Op {
			case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpGoto:
				rel := int(ins.Imm())
				if ins.Op != OpGoto {
					rel = int(ins.BranchOff())
				}
				target := pc + 1 + rel
				if target < 0 || target >= len(m.Code) {
					return fmt.Errorf("dex: %s.%s+%d: branch target %d out of range", f.Name, m.Name, pc, target)
				}
			case OpInvoke:
				if int(ins.B) >= len(f.Methods) {
					return fmt.Errorf("dex: %s.%s+%d: invoke of method #%d (have %d)", f.Name, m.Name, pc, ins.B, len(f.Methods))
				}
				callee := f.Methods[ins.B]
				if int(ins.A) != callee.In {
					return fmt.Errorf("dex: %s.%s+%d: invoke %s with %d args, wants %d", f.Name, m.Name, pc, callee.Name, ins.A, callee.In)
				}
			}
		}
		last := m.Code[len(m.Code)-1]
		if last.Op != OpReturn && last.Op != OpRetVoid && last.Op != OpGoto {
			return fmt.Errorf("dex: %s.%s: control falls off the end", f.Name, m.Name)
		}
	}
	return nil
}

func verifyRegs(m *Method, pc int, ins Instr) error {
	bad := func(r uint8) bool { return int(r) >= NumRegs }
	switch ins.Op {
	case OpNop, OpGoto, OpRetVoid:
		return nil
	case OpConst, OpMoveRes, OpReturn:
		if bad(ins.A) {
			return fmt.Errorf("+%d: register v%d out of range", pc, ins.A)
		}
	case OpMove, OpArrayLen, OpNewArray, OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpAddI, OpIGet, OpIPut:
		if bad(ins.A) || bad(ins.B) {
			return fmt.Errorf("+%d: register out of range", pc)
		}
	case OpNewObj:
		if bad(ins.A) {
			return fmt.Errorf("+%d: register v%d out of range", pc, ins.A)
		}
	case OpInvoke:
		if ins.A > 0 && int(ins.C)+int(ins.A) > NumRegs {
			return fmt.Errorf("+%d: invoke args v%d..v%d out of range", pc, ins.C, int(ins.C)+int(ins.A)-1)
		}
	default: // three-register ALU and array forms
		if bad(ins.A) || bad(ins.B) || bad(ins.C) {
			return fmt.Errorf("+%d: register out of range", pc)
		}
	}
	return nil
}
