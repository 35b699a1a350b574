package dalvik

import (
	"fmt"

	"agave/internal/dex"
	"agave/internal/kernel"
)

// This file is the Dalvik bytecode interpreter: one threaded dispatch loop
// over pre-decoded code (see docs/ARCHITECTURE.md), indexing opTable with
// one handler per opcode. The trace JIT is a cost model, not a second
// executor: an interpreted bytecode charges interpCost libdvm.so fetches and
// one dex-image read, a compiled one charges jitCost dalvik-jit-code-cache
// fetches and no dex read. The stack counters, the flush boundary every
// interpFlush bytecodes and the trace-discovery counter are the same in
// both modes, so golden reports and the determinism sweep do not move.

// acct batches interpreter accounting so the per-bytecode hot path is plain
// integer arithmetic; counters flush to the collector in quantum-sized
// slices. Totals are exact; only intra-slice interleaving is coalesced.
type acct struct {
	dvmFetch, jitFetch    uint64
	dexRead               uint64
	stackRead, stackWrite uint64
	sinceFlushed          uint64
}

const interpFlush = 2048 // bytecodes between accounting flushes

// frame is one method activation: the virtual register file plus the
// execution context the opcode handlers need. Handlers communicate control
// flow back to the dispatch loop through pc, returned, and yielded.
type frame struct {
	regs       [dex.NumRegs]int64
	lastResult int64
	pc         int
	ret        int64
	returned   bool

	// jit selects the compiled cost model for this activation. It starts as
	// vm.compiled at entry and, once set, stays set until return.
	jit bool

	// yielded is set by any handler that may have released the simulated
	// CPU (heap traffic, invokes, accounting flushes, compile-queue sends).
	// The VM's compiled map can only change while another simulated thread
	// runs, and the scheduler is strict-handoff, so an interpreted
	// activation re-reads the map only after instructions that set this
	// flag; a read after every bytecode would see the same values.
	yielded bool

	vm    *VM
	ex    *kernel.Exec
	d     *LoadedDex
	a     *acct
	m     *dex.Method
	mi    int
	key   methodKey
	depth int
}

// Exec interprets method in d until it returns, and returns its result.
// Arguments arrive in the callee's v0..v(n-1).
//
// Attribution: dispatch/execute instructions fetch from libdvm.so (or
// dalvik-jit-code-cache once the method is compiled), each bytecode word is
// a data read from the dex mapping (elided when compiled), register-file
// traffic hits the thread stack, and array/field/alloc traffic hits
// dalvik-heap.
func (vm *VM) Exec(ex *kernel.Exec, d *LoadedDex, method string, args ...int64) int64 {
	mi := d.File.MethodIndex(method)
	if mi < 0 {
		panic(fmt.Sprintf("dalvik: no method %q in %s", method, d.File.Name))
	}
	a := &acct{}
	ret := vm.execMethod(ex, d, mi, args, a, 0)
	vm.flush(ex, a)
	return ret
}

func (vm *VM) flush(ex *kernel.Exec, a *acct) {
	if a.dvmFetch > 0 {
		ex.InCode(vm.LibDVM, func() { ex.Fetch(a.dvmFetch) })
	}
	if a.jitFetch > 0 {
		ex.InCode(vm.JITVMA, func() { ex.Fetch(a.jitFetch) })
	}
	// Note: a.dexRead is flushed at its call sites, which know the dex VMA.
	if st := ex.T.Stack; st != nil {
		ex.Read(st, a.stackRead)
		ex.Write(st, a.stackWrite)
	}
	a.dvmFetch, a.jitFetch, a.stackRead, a.stackWrite = 0, 0, 0, 0
	a.sinceFlushed = 0
}

func (vm *VM) execMethod(ex *kernel.Exec, d *LoadedDex, mi int, args []int64, a *acct, depth int) int64 {
	if depth > 64 {
		panic("dalvik: interpreter recursion too deep")
	}
	m := d.File.Methods[mi]
	key := methodKey{dex: d.File.Name, method: m.Name}
	vm.noteHot(ex, d, mi, key, 1)

	// The compiled read is not gated on JITEnabled: a VM with the JIT off
	// still runs the methods it inherited compiled under the JIT costs.
	fr := &frame{vm: vm, ex: ex, d: d, a: a, m: m, mi: mi, key: key, depth: depth, jit: vm.compiled[key]}
	copy(fr.regs[:], args)
	return vm.run(fr)
}

// run executes fr's method from fr.pc: threaded dispatch over the
// pre-decoded code, charging each bytecode under the activation's cost
// model.
func (vm *VM) run(fr *frame) int64 {
	code := fr.d.pre[fr.mi]
	a, ex, d := fr.a, fr.ex, fr.d
	for {
		pc := fr.pc
		if pc < 0 || pc >= len(code) {
			panic(fmt.Sprintf("dalvik: pc %d out of range in %s", pc, fr.m.Name))
		}
		ins := code[pc]

		if fr.jit {
			a.jitFetch += jitCost
		} else {
			a.dvmFetch += interpCost
			a.dexRead++
		}
		a.stackRead += 2
		a.stackWrite++
		a.sinceFlushed++
		if a.sinceFlushed >= interpFlush {
			ex.Read(d.VMA, a.dexRead)
			a.dexRead = 0
			vm.flush(ex, a)
			fr.yielded = true
		}
		if vm.JITEnabled {
			vm.sinceTrace++
			if vm.sinceTrace >= traceEvery {
				vm.sinceTrace = 0
				vm.sendTrace(ex, d, fr.mi)
				fr.yielded = true
			}
		}

		fr.pc = pc + 1
		opTable[ins.Op](fr, ins)
		if fr.returned {
			return fr.ret
		}
		if fr.yielded && !fr.jit {
			fr.yielded = false
			// A method compiled mid-execution switches attribution at the
			// next loop head, like a real trace JIT entering compiled code.
			fr.jit = vm.compiled[fr.key]
		}
	}
}

// --- dispatch table ---

type opFn func(fr *frame, ins dex.Instr)

// opTable is the threaded-dispatch jump table, indexed by the full uint8
// opcode space so the dispatch load needs no bounds check; undefined opcodes
// dispatch to opBad.
var opTable [256]opFn

func opBad(fr *frame, ins dex.Instr) {
	panic(fmt.Sprintf("dalvik: bad opcode %v (verify the dex)", ins.Op))
}

// branch applies a taken branch: pc was already advanced past the
// instruction, so off is relative to the successor, matching the assembler's
// encoding. Taken backedges of an interpreted activation count as extra
// hotness, as Dalvik's trace JIT did, and may send a compile request (hence
// yielded); noteHot is a no-op for a compiled one, so it skips the call.
func branch(fr *frame, off int) {
	fr.pc += off
	if off < 0 && fr.vm.JITEnabled && !fr.jit {
		fr.vm.noteHot(fr.ex, fr.d, fr.mi, fr.key, 1)
		fr.yielded = true
	}
}

func init() {
	for i := range opTable {
		opTable[i] = opBad
	}
	opTable[dex.OpNop] = func(fr *frame, ins dex.Instr) {}
	opTable[dex.OpConst] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = int64(ins.Imm()) }
	opTable[dex.OpMove] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] }
	opTable[dex.OpAdd] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] + fr.regs[ins.C] }
	opTable[dex.OpSub] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] - fr.regs[ins.C] }
	opTable[dex.OpMul] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] * fr.regs[ins.C] }
	opTable[dex.OpDiv] = func(fr *frame, ins dex.Instr) {
		// Zero divisor yields 0 (documented divergence; see internal/dex/isa.go).
		if fr.regs[ins.C] == 0 {
			fr.regs[ins.A] = 0
		} else {
			fr.regs[ins.A] = fr.regs[ins.B] / fr.regs[ins.C]
		}
	}
	opTable[dex.OpRem] = func(fr *frame, ins dex.Instr) {
		if fr.regs[ins.C] == 0 {
			fr.regs[ins.A] = 0
		} else {
			fr.regs[ins.A] = fr.regs[ins.B] % fr.regs[ins.C]
		}
	}
	opTable[dex.OpAnd] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] & fr.regs[ins.C] }
	opTable[dex.OpOr] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] | fr.regs[ins.C] }
	opTable[dex.OpXor] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] ^ fr.regs[ins.C] }
	opTable[dex.OpShl] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = fr.regs[ins.B] << (uint64(fr.regs[ins.C]) & 63)
	}
	opTable[dex.OpShr] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = fr.regs[ins.B] >> (uint64(fr.regs[ins.C]) & 63)
	}
	opTable[dex.OpAddI] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.regs[ins.B] + int64(int8(ins.C)) }
	opTable[dex.OpIfEq] = func(fr *frame, ins dex.Instr) {
		if fr.regs[ins.A] == fr.regs[ins.B] {
			branch(fr, int(ins.BranchOff()))
		}
	}
	opTable[dex.OpIfNe] = func(fr *frame, ins dex.Instr) {
		if fr.regs[ins.A] != fr.regs[ins.B] {
			branch(fr, int(ins.BranchOff()))
		}
	}
	opTable[dex.OpIfLt] = func(fr *frame, ins dex.Instr) {
		if fr.regs[ins.A] < fr.regs[ins.B] {
			branch(fr, int(ins.BranchOff()))
		}
	}
	opTable[dex.OpIfGe] = func(fr *frame, ins dex.Instr) {
		if fr.regs[ins.A] >= fr.regs[ins.B] {
			branch(fr, int(ins.BranchOff()))
		}
	}
	opTable[dex.OpGoto] = func(fr *frame, ins dex.Instr) { branch(fr, int(ins.Imm())) }
	opTable[dex.OpNewArray] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = int64(fr.vm.AllocArray(fr.ex, fr.regs[ins.B]))
		fr.yielded = true
	}
	opTable[dex.OpArrayLen] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = fr.vm.ArrayLen(fr.ex, uint64(fr.regs[ins.B]))
		fr.yielded = true
	}
	opTable[dex.OpAGet] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = fr.vm.ArrayGet(fr.ex, uint64(fr.regs[ins.B]), fr.regs[ins.C])
		fr.yielded = true
	}
	opTable[dex.OpAPut] = func(fr *frame, ins dex.Instr) {
		fr.vm.ArrayPut(fr.ex, uint64(fr.regs[ins.B]), fr.regs[ins.C], fr.regs[ins.A])
		fr.yielded = true
	}
	opTable[dex.OpNewObj] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = int64(fr.vm.AllocObject(fr.ex, int(ins.B)))
		fr.yielded = true
	}
	opTable[dex.OpIGet] = func(fr *frame, ins dex.Instr) {
		fr.regs[ins.A] = fr.vm.FieldGet(fr.ex, uint64(fr.regs[ins.B]), int(ins.C))
		fr.yielded = true
	}
	opTable[dex.OpIPut] = func(fr *frame, ins dex.Instr) {
		fr.vm.FieldPut(fr.ex, uint64(fr.regs[ins.B]), int(ins.C), fr.regs[ins.A])
		fr.yielded = true
	}
	opTable[dex.OpInvoke] = func(fr *frame, ins dex.Instr) {
		var callArgs []int64
		if ins.A > 0 {
			// The callee copies this window into its own register file at
			// entry, giving call-time snapshot semantics.
			callArgs = fr.regs[ins.C : int(ins.C)+int(ins.A)]
		}
		fr.a.stackWrite += uint64(ins.A) + 2 // frame push
		fr.lastResult = fr.vm.execMethod(fr.ex, fr.d, int(ins.B), callArgs, fr.a, fr.depth+1)
		fr.yielded = true
	}
	opTable[dex.OpMoveRes] = func(fr *frame, ins dex.Instr) { fr.regs[ins.A] = fr.lastResult }
	opTable[dex.OpReturn] = func(fr *frame, ins dex.Instr) {
		if fr.a.dexRead > 0 {
			fr.ex.Read(fr.d.VMA, fr.a.dexRead)
			fr.a.dexRead = 0
		}
		fr.returned = true
		fr.ret = fr.regs[ins.A]
	}
	opTable[dex.OpRetVoid] = func(fr *frame, ins dex.Instr) {
		if fr.a.dexRead > 0 {
			fr.ex.Read(fr.d.VMA, fr.a.dexRead)
			fr.a.dexRead = 0
		}
		fr.returned = true
		fr.ret = 0
	}
}

// --- hotness and trace discovery ---

// noteHot counts an invoke; crossing the threshold enqueues a compile.
func (vm *VM) noteHot(ex *kernel.Exec, d *LoadedDex, mi int, key methodKey, weight int) {
	if !vm.JITEnabled || vm.compiled[key] {
		return
	}
	vm.hot[key] += weight
	if vm.hot[key] >= hotThreshold {
		vm.hot[key] = 0
		vm.compileQueue.Send(ex, compileReq{d: d, mi: mi, key: key})
	}
}

// sendTrace enqueues the next discovered trace, starting in method mi of d.
// Sustained interpretation keeps discovering hot traces (Gingerbread's trace
// JIT), keeping the Compiler thread warm. Both the dispatch loop's
// per-bytecode counter and InterpBulk send through here.
func (vm *VM) sendTrace(ex *kernel.Exec, d *LoadedDex, mi int) {
	vm.compileQueue.Send(ex, compileReq{d: d, mi: mi, key: methodKey{
		dex: d.File.Name, method: fmt.Sprintf("%s#trace%d", d.File.Methods[mi].Name, vm.compilesDone),
	}})
}

// InterpBulk models sustained interpretation of framework/library bytecode
// at statistically calibrated per-bytecode costs, without running a real
// program. Workload models combine real Exec calls (semantics) with
// InterpBulk (volume): the attribution profile is identical; see
// docs/ARCHITECTURE.md.
//
// Per simulated bytecode: interpCost libdvm.so fetches (or jitCost fetches
// from the JIT cache for the warmed fraction), one dex-image read, ~3 stack
// references, and a configurable dalvik-heap mix.
func (vm *VM) InterpBulk(ex *kernel.Exec, d *LoadedDex, bytecodes uint64, heavyAlloc bool) {
	if bytecodes == 0 {
		return
	}
	jitShare := uint64(0)
	if vm.JITEnabled {
		// Warmed fraction of execution running from the code cache.
		jitShare = 45
		if len(vm.compiled) == 0 {
			jitShare = 10
		}
	}
	jitBC := bytecodes * jitShare / 100
	interpBC := bytecodes - jitBC

	ex.InCode(vm.LibDVM, func() {
		ex.Do(kernel.Work{Fetch: interpCost, Reads: 1, Data: d.VMA}, interpBC)
		// Register file traffic on the thread stack.
		ex.Do(kernel.Work{Fetch: 1, Reads: 2, Writes: 1, Data: ex.T.Stack}, bytecodes/2)
		// Object traffic: field/array ops against the managed heap —
		// roughly every other bytecode touches an object.
		heapOps := bytecodes / 2
		ex.Do(kernel.Work{Fetch: 1, Reads: 1, Data: vm.HeapVMA}, heapOps*2/3)
		ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: vm.HeapVMA}, heapOps/3)
	})
	if jitBC > 0 {
		ex.InCode(vm.JITVMA, func() {
			ex.Do(kernel.Work{Fetch: jitCost, Reads: 1, Data: vm.HeapVMA}, jitBC)
		})
	}

	// Allocation pressure feeds the GC, heavier for allocation-happy code.
	allocBytes := bytecodes / 8
	if heavyAlloc {
		allocBytes = bytecodes * 3
	}
	vm.allocSinceGC += allocBytes
	for vm.allocSinceGC >= gcThreshold {
		vm.allocSinceGC -= gcThreshold
		vm.heapTop = 16 + (vm.heapTop+allocBytes)%(vm.HeapVMA.Size()-16)
		vm.gcQueue.Send(ex, gcReq{used: max(vm.heapTop, gcThreshold)})
	}

	// Sustained interpretation keeps discovering hot traces (Gingerbread's
	// trace JIT), keeping the Compiler thread busy for the whole run.
	// A method-less image (rejected by dex.Verify, but constructible by
	// hand) has no traces to discover — and indexing its method table
	// below would divide by zero.
	if vm.JITEnabled && len(d.File.Methods) > 0 {
		vm.sinceTrace += bytecodes
		for vm.sinceTrace >= traceEvery {
			vm.sinceTrace -= traceEvery
			vm.sendTrace(ex, d, int(vm.sinceTrace/977)%len(d.File.Methods))
		}
	}
}
