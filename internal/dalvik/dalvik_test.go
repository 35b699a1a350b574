package dalvik

import (
	"fmt"
	"testing"

	"agave/internal/dex"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// harness spins up a kernel + process + VM and runs body on the process's
// main thread, then drives the machine until idle.
func harness(t *testing.T, services bool, body func(ex *kernel.Exec, vm *VM, d *LoadedDex)) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 7})
	t.Cleanup(k.Shutdown)
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
	vm := Attach(p, lm, services)
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		d := vm.LoadDex(ex, StockDex("benchmark"))
		body(ex, vm, d)
	})
	k.Run(500 * sim.Millisecond)
	return k
}

func TestInterpreterArithmetic(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		if got := vm.Exec(ex, d, "sumLoop", 100); got != 4950 {
			t.Errorf("sumLoop(100) = %d, want 4950", got)
		}
		if got := vm.Exec(ex, d, "callHeavy", 10); got != 7*45+3*10 {
			t.Errorf("callHeavy(10) = %d, want %d", got, 7*45+3*10)
		}
	})
}

func TestInterpreterArraysAndObjects(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		ref := vm.Exec(ex, d, "fillArray", 50)
		if got := vm.Exec(ex, d, "scanArray", ref); got != 3*(49*50/2) {
			t.Errorf("scanArray = %d, want %d", got, 3*(49*50/2))
		}
		chain := vm.Exec(ex, d, "objectChurn", 20)
		if got := vm.Exec(ex, d, "chainWalk", chain); got != 19*20/2 {
			t.Errorf("chainWalk = %d, want %d", got, 19*20/2)
		}
	})
}

func TestInterpreterBlend(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		a := vm.Exec(ex, d, "fillArray", 32)
		b := vm.Exec(ex, d, "fillArray", 32)
		want := int64(0)
		for i := int64(0); i < 32; i++ {
			want += (3 * i * 3 * i) >> 8
		}
		if got := vm.Exec(ex, d, "blend", a, b); got != want {
			t.Errorf("blend = %d, want %d", got, want)
		}
	})
}

func TestInterpreterAttribution(t *testing.T) {
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.Exec(ex, d, "sumLoop", 5000)
	})
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch["libdvm.so"] == 0 {
		t.Fatal("no interpreter fetches attributed to libdvm.so")
	}
	dread := k.Stats.ByRegion(stats.DataRead)
	if dread["benchmark@classes.dex"] == 0 {
		t.Fatal("no bytecode reads attributed to the dex mapping")
	}
	if dread[mem.RegionStack] == 0 {
		t.Fatal("no register-file reads attributed to the stack")
	}
}

func TestHeapTrafficAttribution(t *testing.T) {
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		ref := vm.Exec(ex, d, "fillArray", 2000)
		vm.Exec(ex, d, "scanArray", ref)
	})
	heap := k.Stats.ByRegion(stats.DataKinds...)[mem.RegionDalvikHeap]
	if heap < 4000 {
		t.Fatalf("dalvik-heap refs = %d, want >= 4000", heap)
	}
}

func TestJITCompilesHotMethod(t *testing.T) {
	var compiles uint64
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		// Invoke enough times to cross the hot threshold, then yield so
		// the Compiler thread runs, then call again for JIT execution.
		for i := 0; i < hotThreshold+2; i++ {
			vm.Exec(ex, d, "sumLoop", 3)
		}
		ex.SleepFor(5 * sim.Millisecond)
		vm.Exec(ex, d, "sumLoop", 3)
		compiles = vm.CompilesDone()
	})
	if compiles == 0 {
		t.Fatal("hot method never compiled")
	}
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache]; got == 0 {
		t.Fatal("no fetches from dalvik-jit-code-cache after compilation")
	}
	if got := k.Stats.ByRegion(stats.DataWrite)[mem.RegionJITCache]; got == 0 {
		t.Fatal("compiler emitted no code into the cache")
	}
	if got := k.Stats.ByThread()["Compiler"]; got == 0 {
		t.Fatal("Compiler thread earned no references")
	}
}

func TestJITDisabled(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.JITEnabled = false
		for i := 0; i < hotThreshold*3; i++ {
			vm.Exec(ex, d, "sumLoop", 3)
		}
		ex.SleepFor(5 * sim.Millisecond)
		if vm.CompilesDone() != 0 {
			t.Error("compiles happened with JIT disabled")
		}
	})
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache]; got != 0 {
		t.Fatalf("JIT cache fetched %d with JIT off", got)
	}
}

func TestGCRunsUnderAllocationPressure(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		// Churn enough to cross the GC threshold several times
		// (each churn of 1000 allocates ~24 KB).
		for i := 0; i < 200; i++ {
			vm.Exec(ex, d, "objectChurn", 1000)
		}
		ex.SleepFor(10 * sim.Millisecond)
		if vm.gcRuns == 0 {
			t.Error("no GC cycles despite churn")
		}
	})
	if got := k.Stats.ByThread()["GC"]; got == 0 {
		t.Fatal("GC thread earned no references")
	}
}

func TestInterpBulkAttribution(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.InterpBulk(ex, d, 200_000, false)
		ex.SleepFor(5 * sim.Millisecond)
	})
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch["libdvm.so"] < 200_000 {
		t.Fatalf("libdvm.so fetches = %d, want >= bytecode count", ifetch["libdvm.so"])
	}
	if ifetch[mem.RegionJITCache] == 0 {
		t.Fatal("warmed bulk interpretation fetched nothing from the JIT cache")
	}
	if k.Stats.ByRegion(stats.DataRead)["benchmark@classes.dex"] == 0 {
		t.Fatal("bulk interpretation read no bytecode")
	}
}

// bulkJITShare runs InterpBulk over 10,000 bytecodes, fewer than traceEvery,
// and returns the percentage of them it charged to the JIT code cache. Only
// a compiled activation or InterpBulk's warmed share fetches from the cache.
func bulkJITShare(ex *kernel.Exec, vm *VM, d *LoadedDex) uint64 {
	const n = 10_000
	before := ex.K.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache]
	vm.InterpBulk(ex, d, n, false)
	return (ex.K.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache] - before) * 100 / (jitCost * n)
}

// TestCompiledTraceWarmsInterpBulk: once a discovered trace compiles,
// InterpBulk runs 45% of its bytecodes from the JIT cache instead of 10%, a
// child forked from that VM starts at 45%, and the trace sets no method's
// compiled bit.
func TestCompiledTraceWarmsInterpBulk(t *testing.T) {
	var zygote *VM
	var d *LoadedDex
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, ld *LoadedDex) {
		zygote, d = vm, ld
		if got := bulkJITShare(ex, vm, d); got != 10 {
			t.Errorf("JIT share before any compile = %d%%, want 10%%", got)
		}
		vm.InterpBulk(ex, d, traceEvery, false) // discovers one trace
		ex.SleepFor(5 * sim.Millisecond)        // the Compiler thread compiles it
		if got := vm.CompilesDone(); got != 1 {
			t.Fatalf("%d compiles, want the one trace", got)
		}
		if got := bulkJITShare(ex, vm, d); got != 45 {
			t.Errorf("JIT share after a trace compiled = %d%%, want 45%%", got)
		}
	})
	for mi, m := range d.jit {
		if m.compiled {
			t.Errorf("method %s compiled after only a trace compiled", d.File.Methods[mi].Name)
		}
	}
	child := ForkVM(zygote, k.Fork(zygote.Proc, "app"), false)
	var share uint64
	k.SpawnThread(child.Proc, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(child.Proc.Layout.Text)
		share = bulkJITShare(ex, child, child.dexes[d.File.Name])
	})
	k.Run(k.Clock.Now() + 100*sim.Millisecond)
	if share != 45 {
		t.Errorf("forked child's JIT share = %d%%, want 45%%", share)
	}
}

func TestLoadDexChargesLinearAlloc(t *testing.T) {
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {})
	if got := k.Stats.ByRegion(stats.DataWrite)[mem.RegionLinearAlloc]; got == 0 {
		t.Fatal("class loading wrote nothing to dalvik-LinearAlloc")
	}
}

func TestLoadDexIdempotent(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		d2 := vm.LoadDex(ex, StockDex("benchmark"))
		if d2 != d {
			t.Error("LoadDex of same name created a second image")
		}
	})
}

func TestVMServiceThreadsExist(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {})
	groups := map[string]bool{}
	for _, th := range k.Threads() {
		groups[k.Stats.ThreadName(th.StatID)] = true
	}
	for _, want := range []string{"GC", "Compiler", "HeapWorker", "Signal Catcher", "JDWP"} {
		if !groups[want] {
			t.Errorf("VM service thread %q missing", want)
		}
	}
}

func TestHeapWrapModelsFullGC(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		before := vm.gcRuns
		// Allocate more than the whole heap in chunks.
		for i := 0; i < 30; i++ {
			vm.AllocArray(ex, (HeapSize/4)/30*8)
		}
		if vm.gcRuns == before {
			t.Error("wrapping the heap ran no full GC")
		}
		if vm.heapTop > HeapSize {
			t.Error("heap top ran past the arena")
		}
	})
}

func TestStockDexVerifies(t *testing.T) {
	f := StockDex("x")
	if len(f.Methods) < 7 {
		t.Fatalf("stock dex has %d methods", len(f.Methods))
	}
	if err := dex.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestStockDexAssemblesOnce: every app's stock file is a renamed view of one
// set assembled per process, so a name's first call assembles nothing.
func TestStockDexAssemblesOnce(t *testing.T) {
	a, b := StockDex("alpha"), StockDex("beta")
	if a.Name != "alpha" || b.Name != "beta" {
		t.Fatalf("names %q and %q, want alpha and beta", a.Name, b.Name)
	}
	if len(a.Methods) != len(b.Methods) {
		t.Fatalf("alpha has %d methods, beta %d", len(a.Methods), len(b.Methods))
	}
	for i, m := range a.Methods {
		if b.Methods[i] != m {
			t.Fatalf("alpha and beta hold separate copies of method %d (%s)", i, m.Name)
		}
	}
	names := make([]string, 101) // AllocsPerRun calls once more than its runs
	for i := range names {
		names[i] = fmt.Sprintf("first-call-%d", i)
	}
	var f *dex.File
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		f = StockDex(names[n])
		n++
	})
	if f.Name != names[100] {
		t.Fatalf("last view is named %q, want %q", f.Name, names[100])
	}
	if allocs > 2 {
		t.Fatalf("a new name's first StockDex call allocated %.1f times, want at most 2: it assembled", allocs)
	}
}

func TestDeterministicInterpRun(t *testing.T) {
	run := func() uint64 {
		k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 7})
		defer k.Shutdown()
		p := k.NewProcess("benchmark", 1<<20, 1<<20)
		lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
		vm := Attach(p, lm, true)
		k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
			ex.PushCode(p.Layout.Text)
			d := vm.LoadDex(ex, StockDex("benchmark"))
			for i := 0; i < 30; i++ {
				vm.Exec(ex, d, "sumLoop", 200)
				vm.Exec(ex, d, "objectChurn", 50)
			}
		})
		k.Run(200 * sim.Millisecond)
		return k.Stats.Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("interpreter runs diverged: %d vs %d", a, b)
	}
}

// bareVM attaches a VM without service threads to a fresh process of k. The
// heap-page tests drive its store directly, without running the kernel.
func bareVM(k *kernel.Kernel, name string) *VM {
	p := k.NewProcess(name, 1<<20, 1<<20)
	return Attach(p, loader.Load(p.AS, p.Layout, loader.BaseSet()), false)
}

// TestHeapWordStraddlesPages: InterpBulk leaves the bump pointer unaligned,
// so an object's word can straddle two heap pages, and it must read back
// whole.
func TestHeapWordStraddlesPages(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond})
	defer k.Shutdown()
	vm := bareVM(k, "benchmark")
	vm.store32(mem.PageSize-2, 0xdeadbeef)
	if got := vm.load32(mem.PageSize - 2); got != 0xdeadbeef {
		t.Fatalf("word at PageSize-2 read back %#x", got)
	}
	if got := vm.load32(mem.PageSize); got != 0xdead {
		t.Fatalf("word at PageSize read %#x, want the straddling word's high half 0xdead", got)
	}
}

// TestHeapUnwrittenWordReadsZero: an absent page reads as zero, and reading
// it materializes nothing.
func TestHeapUnwrittenWordReadsZero(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond})
	defer k.Shutdown()
	vm := bareVM(k, "benchmark")
	if got := vm.load32(HeapSize / 2); got != 0 {
		t.Fatalf("unwritten word read %#x", got)
	}
	vm.zero(HeapSize/2, 4*mem.PageSize)
	if n := heapTables(vm); n != 0 {
		t.Fatalf("reading and zeroing unwritten memory materialized %d pages and leaves", n)
	}
}

// heapTables counts the heap pages and page-table leaves vm has
// materialized.
func heapTables(vm *VM) int {
	n := 0
	for _, l := range vm.pages {
		if l != nil {
			n++
			for _, p := range l {
				if p != nil {
					n++
				}
			}
		}
	}
	return n
}

// TestHeapAccessOutsideArenaPanics: the arena's last word is addressable,
// and a word reaching one byte past it is a model bug that panics.
func TestHeapAccessOutsideArenaPanics(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond})
	defer k.Shutdown()
	vm := bareVM(k, "benchmark")
	vm.store32(HeapSize-4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a word past the heap arena did not panic")
		}
	}()
	vm.load32(HeapSize - 3)
}

// TestForkVMStartsWithNoHeapPages: no child can read a heap word its zygote
// wrote, so a fork copies no page, and later writes on either side do not
// reach the other.
func TestForkVMStartsWithNoHeapPages(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond})
	defer k.Shutdown()
	zygote := bareVM(k, "zygote")
	zygote.store32(64, 42)
	child := ForkVM(zygote, k.Fork(zygote.Proc, "app"), false)
	if n := heapTables(child); n != 0 {
		t.Fatalf("child holds %d heap pages and leaves right after the fork, want 0", n)
	}
	child.store32(64, 7)
	if got := zygote.load32(64); got != 42 {
		t.Fatalf("child's write reached the zygote: read %d", got)
	}
	zygote.store32(68, 9)
	if got := child.load32(68); got != 0 {
		t.Fatalf("zygote's write reached the child: read %d", got)
	}
}

// TestAllocOverStaleBytesReadsZero: an allocation writes its header and
// zeroes every element or field a program can load, whatever the heap held
// there before. ForkVM's empty child store relies on it.
func TestAllocOverStaleBytesReadsZero(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		for off := vm.heapTop; off < vm.heapTop+512; off += 4 {
			vm.store32(off, 0xffffffff)
		}
		arr := vm.AllocArray(ex, 16)
		if n := vm.ArrayLen(ex, arr); n != 16 {
			t.Errorf("ArrayLen = %d, want 16", n)
		}
		for i := range int64(16) {
			if v := vm.ArrayGet(ex, arr, i); v != 0 {
				t.Errorf("element %d reads %d over stale bytes", i, v)
			}
		}
		obj := vm.AllocObject(ex, 8)
		for f := range 8 {
			if v := vm.FieldGet(ex, obj, f); v != 0 {
				t.Errorf("field %d reads %d over stale bytes", f, v)
			}
		}
	})
}

// TestSameNamedMethodsWarmUpIndependently: JIT state belongs to a method of
// one dex file, so two dex files that both define sumLoop count hotness and
// compile apart.
func TestSameNamedMethodsWarmUpIndependently(t *testing.T) {
	var a, b *LoadedDex
	var compiles uint64
	harness(t, true, func(ex *kernel.Exec, vm *VM, _ *LoadedDex) {
		a = vm.LoadDex(ex, StockDex("alpha"))
		b = vm.LoadDex(ex, StockDex("beta"))
		vm.Exec(ex, a, "sumLoop", 30) // 31 counts: one compile request
		ex.SleepFor(5 * sim.Millisecond)
		vm.Exec(ex, b, "sumLoop", 10) // 11 counts: below the threshold
		ex.SleepFor(5 * sim.Millisecond)
		compiles = vm.CompilesDone()
	})
	mi := a.method("sumLoop")
	if !a.jit[mi].compiled || b.jit[mi].compiled {
		t.Fatalf("compiled: alpha %v, beta %v; want only alpha's sumLoop", a.jit[mi].compiled, b.jit[mi].compiled)
	}
	if got := b.jit[mi].hot; got != 11 {
		t.Fatalf("beta's sumLoop hotness = %d, want its own 11", got)
	}
	if compiles != 1 {
		t.Fatalf("%d compiles, want alpha's sumLoop only", compiles)
	}
}

// TestForkVMInheritsCompiledBitsNotHotness: a ForkVM child starts with its
// parent's compiled methods and no hotness, in JIT state of its own.
func TestForkVMInheritsCompiledBitsNotHotness(t *testing.T) {
	var parent *VM
	var d *LoadedDex
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, ld *LoadedDex) {
		parent, d = vm, ld
		vm.ForceCompile(d, "sumLoop")
		vm.Exec(ex, d, "fillArray", 5)
	})
	fill := d.method("fillArray")
	if d.jit[fill].hot == 0 {
		t.Fatal("the parent's fillArray gained no hotness")
	}
	child := ForkVM(parent, k.Fork(parent.Proc, "app"), false)
	cd := child.dexes[d.File.Name]
	for mi, m := range cd.jit {
		if m.compiled != d.jit[mi].compiled || m.hot != 0 {
			t.Errorf("child's %s: compiled %v hot %d, want compiled %v hot 0",
				d.File.Methods[mi].Name, m.compiled, m.hot, d.jit[mi].compiled)
		}
	}
	child.ForceCompile(cd, "fillArray")
	if d.jit[fill].compiled {
		t.Fatal("compiling the child's fillArray compiled the parent's")
	}
}

// TestForceCompileSetsOneMethod: ForceCompile sets exactly the named
// method's compiled bit, and an unknown name panics as it does in Exec.
func TestForceCompileSetsOneMethod(t *testing.T) {
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	var execPanic, forcePanic any
	var d *LoadedDex
	harness(t, false, func(ex *kernel.Exec, vm *VM, ld *LoadedDex) {
		d = ld
		vm.ForceCompile(d, "scanArray")
		execPanic = panicOf(func() { vm.Exec(ex, d, "noSuchMethod") })
		forcePanic = panicOf(func() { vm.ForceCompile(d, "noSuchMethod") })
	})
	for mi, m := range d.jit {
		if name := d.File.Methods[mi].Name; m.compiled != (name == "scanArray") {
			t.Errorf("%s compiled = %v after ForceCompile(scanArray)", name, m.compiled)
		}
	}
	if forcePanic == nil || forcePanic != execPanic {
		t.Fatalf("ForceCompile of an unknown method panicked with %v, want Exec's %v", forcePanic, execPanic)
	}
}
