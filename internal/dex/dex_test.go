package dex

import (
	"strings"
	"testing"
	"testing/quick"
)

const goodSrc = `
.method main 1
    const v1, 0
    const v2, 0
loop:
    if_ge v2, v0, done
    add v1, v1, v2
    addi v2, v2, 1
    goto loop
done:
    return v1
.end

.method double 1
    const v1, 2
    mul v2, v0, v1
    return v2
.end
`

func TestAssembleAndLookup(t *testing.T) {
	f, err := Assemble("test", goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Methods) != 2 {
		t.Fatalf("methods = %d, want 2", len(f.Methods))
	}
	if mi := f.MethodIndex("main"); mi < 0 || f.Methods[mi].In != 1 {
		t.Fatalf("main lookup failed: index %d", mi)
	}
	if f.MethodIndex("double") != 1 {
		t.Fatalf("double index = %d", f.MethodIndex("double"))
	}
	if f.MethodIndex("missing") != -1 {
		t.Fatal("missing method found")
	}
}

func TestBranchResolution(t *testing.T) {
	f, err := Assemble("test", goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Methods[f.MethodIndex("main")]
	// instr 2 is if_ge -> done (instr 6); rel = 6 - 3 = 3
	if got := m.Code[2].Imm(); got != 3 {
		t.Fatalf("if_ge rel = %d, want 3", got)
	}
	// instr 5 is goto -> loop (instr 2); rel = 2 - 6 = -4
	if got := m.Code[5].Imm(); got != -4 {
		t.Fatalf("goto rel = %d, want -4", got)
	}
}

func TestVerifyGood(t *testing.T) {
	f, err := Assemble("test", goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"missing end":        ".method m 0\nreturn_void\n",
		"label outside":      "x:\n",
		"instr outside":      "const v0, 1\n",
		"bad register":       ".method m 0\nconst v99, 1\nreturn_void\n.end",
		"bad mnemonic":       ".method m 0\nfrobnicate v0\nreturn_void\n.end",
		"undefined label":    ".method m 0\ngoto nowhere\nreturn_void\n.end",
		"undefined callee":   ".method m 0\ninvoke ghost\nreturn_void\n.end",
		"dup method":         ".method m 0\nreturn_void\n.end\n.method m 0\nreturn_void\n.end",
		"imm range":          ".method m 0\nconst v0, 70000\nreturn_void\n.end",
		"nonconsecutive arg": ".method m 0\nconst v0, 1\nconst v2, 2\ninvoke h, v0, v2\nreturn_void\n.end\n.method h 2\nreturn_void\n.end",
	}
	for name, src := range cases {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestVerifyCatchesFallOffEnd(t *testing.T) {
	f := NewFile("t")
	if err := f.Add(&Method{Name: "bad", Code: []Instr{{Op: OpNop}}}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Fatalf("want fall-off error, got %v", err)
	}
}

func TestVerifyRejectsZeroMethodFile(t *testing.T) {
	// A method-less image used to pass Verify (the per-method loop never
	// ran) and then divide interpreters by zero; it must be rejected.
	if err := Verify(NewFile("empty")); err == nil || !strings.Contains(err.Error(), "no methods") {
		t.Fatalf("want zero-method error, got %v", err)
	}
}

func TestVerifyCatchesBadBranch(t *testing.T) {
	f := NewFile("t")
	bad := Instr{Op: OpGoto}.WithImm(100)
	if err := f.Add(&Method{Name: "bad", Code: []Instr{bad, {Op: OpRetVoid}}}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "target") {
		t.Fatalf("want branch error, got %v", err)
	}
}

func TestVerifyCatchesBadInvokeArity(t *testing.T) {
	src := `
.method m 0
    const v0, 1
    invoke h, v0
    return_void
.end
.method h 2
    return_void
.end`
	if _, err := Assemble("t", src); err == nil {
		// Assembler accepts; verifier must reject arity mismatch.
		t.Log("assembler accepted, checking verifier")
	}
	f := NewFile("t")
	_ = f.Add(&Method{Name: "h", In: 2, Code: []Instr{{Op: OpRetVoid}}})
	_ = f.Add(&Method{Name: "m", In: 0, Code: []Instr{
		{Op: OpInvoke, A: 1, B: 0, C: 0},
		{Op: OpRetVoid},
	}})
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "args") {
		t.Fatalf("want arity error, got %v", err)
	}
}

func TestImmRoundtripProperty(t *testing.T) {
	fn := func(v int16) bool {
		return Instr{Op: OpConst}.WithImm(v).Imm() == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeLayout(t *testing.T) {
	f, err := Assemble("test", goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	instrs := 0
	for _, m := range f.Methods {
		instrs += len(m.Code)
	}
	if want := uint64(16 + 12*len(f.Methods) + 4*instrs); f.Size() != want {
		t.Fatalf("Size() = %d, want %d", f.Size(), want)
	}
}

func TestVerifyCatchesBadOpcode(t *testing.T) {
	f := NewFile("t")
	_ = f.Add(&Method{Name: "bad", Code: []Instr{{Op: Op(200)}, {Op: OpRetVoid}}})
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "bad opcode") {
		t.Fatalf("want bad-opcode error, got %v", err)
	}
}

func TestInstrString(t *testing.T) {
	i := Instr{Op: OpAdd, A: 1, B: 2, C: 3}
	if got := i.String(); got != "add v1, v2, v3" {
		t.Fatalf("String = %q", got)
	}
	if !strings.Contains(Instr{Op: OpConst, A: 0}.WithImm(-5).String(), "#-5") {
		t.Fatal("const disassembly missing immediate")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
; leading comment
.method m 0   ; trailing
    const v0, 1   # hash comment

    return v0
.end
`
	f, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Methods[f.MethodIndex("m")]
	if len(m.Code) != 2 {
		t.Fatalf("code len = %d, want 2", len(m.Code))
	}
}
