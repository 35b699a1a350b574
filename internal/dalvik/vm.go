// Package dalvik models the Dalvik virtual machine as the paper observes it:
// an interpreter whose dispatch loop executes from libdvm.so text, bytecode
// fetches charged as data reads of mapped dex images, a managed object heap
// in the "dalvik-heap" region (its words, in the VM's own page store, are
// the only simulated bytes a program reads back), class metadata in
// "dalvik-LinearAlloc", a trace JIT writing into "dalvik-jit-code-cache",
// and the VM service threads ("Compiler", "GC", "HeapWorker", "Signal
// Catcher", "JDWP") that Table I of the paper ranks among the busiest in
// the system.
package dalvik

import (
	"fmt"

	"agave/internal/dex"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
)

// Arena and policy sizes (Gingerbread-flavoured).
const (
	HeapSize        = 24 << 20
	LinearAllocSize = 4 << 20
	JITCacheSize    = 1536 << 10

	// gcThreshold is the allocation volume that triggers a concurrent GC
	// cycle (GC_CONCURRENT fired every couple of MB on Gingerbread).
	gcThreshold = 2 << 20

	// gcLiveFloor is the assumed live set a mark pass scans even when the
	// bump pointer is low (framework classes + app state).
	gcLiveFloor = 8 << 20

	// hotThreshold is the invoke/backedge count after which a method is
	// handed to the Compiler thread.
	hotThreshold = 24

	// traceEvery models Gingerbread's trace JIT granularity: sustained
	// interpretation keeps discovering new hot traces, so every
	// traceEvery interpreted bytecodes enqueue one more trace
	// compilation.
	traceEvery = 25_000

	// minTraceUnits is the compile-cost floor per request: traces inline
	// across methods, so even a short method costs a real trace's worth
	// of compiler work.
	minTraceUnits = 480

	// Interpreter cost model: host instructions per bytecode when
	// interpreted (libdvm.so) vs JIT-compiled (dalvik-jit-code-cache).
	interpCost = 12
	jitCost    = 4
)

// LoadedDex is a dex file mapped into the VM's address space. The mapping is
// named after the package ("<name>@classes.dex"), matching how dalvik-cache
// images appear in /proc/maps — each distinct name is one more region in the
// paper's Figure 2 census. The interpreter runs the file's methods and
// charges its bytecode reads to the mapping.
type LoadedDex struct {
	File *dex.File
	VMA  *mem.VMA

	// jit holds this VM's JIT state of each of File's methods, indexed by
	// method index.
	jit []methodJIT
}

// methodJIT counts a method's invokes and taken backedges since its last
// compile request, and records whether it has compiled.
type methodJIT struct {
	hot      int32
	compiled bool
}

// method returns the index of the named method of d, and panics if d has
// no such method.
func (d *LoadedDex) method(name string) int {
	mi := d.File.MethodIndex(name)
	if mi < 0 {
		panic(fmt.Sprintf("dalvik: no method %q in %s", name, d.File.Name))
	}
	return mi
}

// VM is one process's Dalvik instance.
type VM struct {
	Proc *kernel.Process

	LibDVM  *mem.VMA // interpreter + compiler text
	HeapVMA *mem.VMA // dalvik-heap
	Linear  *mem.VMA // dalvik-LinearAlloc
	JITVMA  *mem.VMA // dalvik-jit-code-cache

	// JITEnabled can be cleared to model -Xint:fast (ablation A1).
	JITEnabled bool

	heapTop      uint64
	heapCommit   uint64 // bytes of HeapVMA currently resident (>= heapTop)
	allocSinceGC uint64
	gcRuns       uint64

	// pages holds the object heap's bytes, the only simulated memory a
	// program reads back, as a two-level table indexed by page index within
	// the arena. An absent page reads as zero, and only a write materializes
	// one (and its leaf).
	pages [HeapSize / mem.PageSize / leafPages]*heapLeaf

	gcQueue      *kernel.MsgQueue[gcReq]
	compileQueue *kernel.MsgQueue[compileReq]

	// warm records that a method or a trace has compiled in this VM or its
	// fork parent; only InterpBulk's warmed share reads it.
	warm          bool
	jitTop        uint64
	sinceTrace    uint64
	compilesDone  uint64
	dexes         map[string]*LoadedDex
	serviceSpawns bool
	heapWorkerWq  *kernel.WaitQueue
}

// compileReq asks the Compiler thread for method mi of d: the method
// itself, or, with trace set, a trace discovered starting in it.
type compileReq struct {
	d     *LoadedDex
	mi    int
	trace bool
}

type gcReq struct {
	used uint64
}

// Attach creates a VM inside proc. lm must already map libdvm.so. The VM
// maps its runtime arenas and, when services is true, spawns the VM service
// threads (GC, Compiler, HeapWorker, Signal Catcher, JDWP).
func Attach(proc *kernel.Process, lm *loader.LinkMap, services bool) *VM {
	k := proc.Kernel()
	vm := &VM{
		Proc:       proc,
		LibDVM:     lm.VMA("libdvm.so"),
		JITEnabled: true,
		dexes:      make(map[string]*LoadedDex),
	}
	vm.HeapVMA = proc.AS.MapAnywhere(mem.MmapBase, HeapSize, mem.RegionDalvikHeap,
		mem.PermRead|mem.PermWrite, mem.ClassRuntime)
	vm.Linear = proc.AS.MapAnywhere(mem.MmapBase, LinearAllocSize, mem.RegionLinearAlloc,
		mem.PermRead|mem.PermWrite, mem.ClassRuntime)
	vm.JITVMA = proc.AS.MapAnywhere(mem.MmapBase, JITCacheSize, mem.RegionJITCache,
		mem.PermRead|mem.PermWrite|mem.PermExec, mem.ClassRuntime)
	vm.heapTop = 16 // offset 0 is reserved so 0 can mean null
	vm.heapCommit = vm.HeapVMA.Size()
	vm.gcQueue = kernel.NewMsgQueue[gcReq](k, "dalvik.gc")
	vm.compileQueue = kernel.NewMsgQueue[compileReq](k, "dalvik.jit")
	if services {
		vm.spawnServices()
	}
	return vm
}

func (vm *VM) spawnServices() {
	if vm.serviceSpawns {
		return
	}
	vm.serviceSpawns = true
	k := vm.Proc.Kernel()
	k.SpawnThread(vm.Proc, "GC", "GC", vm.gcLoop)
	k.SpawnThread(vm.Proc, "Compiler", "Compiler", vm.compilerLoop)
	// The remaining daemons exist for thread-census realism; they park
	// immediately and wake rarely (HeapWorker runs finalizers after GC).
	k.SpawnThread(vm.Proc, "HeapWorker", "HeapWorker", func(ex *kernel.Exec) {
		ex.PushCode(vm.LibDVM)
		wq := k.NewWaitQueue("dalvik.heapworker")
		vm.heapWorkerWq = wq
		for {
			ex.Wait(wq)
			// Finalizer sweep: touch a slice of the heap.
			ex.Do(kernel.Work{Fetch: 2, Reads: 1, Data: vm.HeapVMA}, 2000)
		}
	})
	k.SpawnThread(vm.Proc, "Signal Catcher", "Signal Catcher", func(ex *kernel.Exec) {
		ex.PushCode(vm.LibDVM)
		ex.Wait(k.NewWaitQueue("dalvik.sigcatch"))
	})
	k.SpawnThread(vm.Proc, "JDWP", "JDWP", func(ex *kernel.Exec) {
		ex.PushCode(vm.LibDVM)
		ex.Wait(k.NewWaitQueue("dalvik.jdwp"))
	})
}

// LoadDex maps a region of file.Size() bytes into the process as
// "<file name>@classes.dex" (a real dalvik-cache image is mmapped; we charge
// the map-and-verify cost of walking it, though no bytes are laid out) and
// charges class-metadata writes to dalvik-LinearAlloc.
func (vm *VM) LoadDex(ex *kernel.Exec, file *dex.File) *LoadedDex {
	if d, ok := vm.dexes[file.Name]; ok {
		return d
	}
	name := file.Name + "@classes.dex"
	v := vm.Proc.AS.MapAnywhere(mem.MmapBase, file.Size(), name,
		mem.PermRead, mem.ClassData)
	d := vm.Adopt(file, v)

	// Class loading: walk the image (reads) and populate LinearAlloc
	// metadata (writes).
	words := file.Size() / 4
	ex.InCode(vm.LibDVM, func() {
		ex.Do(kernel.Work{Fetch: 3, Reads: 1, Data: v}, words/4)
		ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: vm.Linear}, 64*uint64(len(file.Methods))+words/16)
	})
	return d
}

// Adopt wraps an already-mapped region (for example the loader-mapped
// "framework.jar@classes.dex") as a LoadedDex running file, so
// framework-bytecode interpretation charges its reads to the region the
// linker mapped. The mapping must be at least file.Size() bytes.
func (vm *VM) Adopt(file *dex.File, v *mem.VMA) *LoadedDex {
	if d, ok := vm.dexes[file.Name]; ok {
		return d
	}
	if file.Size() > v.Size() {
		panic(fmt.Sprintf("dalvik: image %s (%d bytes) larger than mapping %s", file.Name, file.Size(), v.Name))
	}
	d := &LoadedDex{File: file, VMA: v, jit: make([]methodJIT, len(file.Methods))}
	vm.dexes[file.Name] = d
	return d
}

// ForkVM builds the child-process view of parent's VM after a fork: the
// child's address space already maps every runtime arena and dex image, so
// the new VM rebinds to the child's VMAs. It inherits the parent's bump
// pointer but starts with no heap pages, because no child can read a word
// the parent wrote: every reference a program holds comes from an
// allocation in its own VM (Exec's arguments are counts at every call site,
// and the zygote drops the ref its preload returns), and an allocation
// writes its header and zeroes every element or field a program can load.
// Writes on either side never reach the other. JIT state is inherited warm,
// as zygote children inherit the preloaded-class world: the child starts
// with the parent's compiled methods and no hotness. VM service threads are
// spawned fresh in the child when services is true.
func ForkVM(parent *VM, child *kernel.Process, services bool) *VM {
	k := child.Kernel()
	find := func(name string) *mem.VMA {
		v := child.AS.FindByName(name)
		if v == nil {
			panic(fmt.Sprintf("dalvik: forked child lacks region %q", name))
		}
		return v
	}
	vm := &VM{
		Proc:       child,
		LibDVM:     find("libdvm.so"),
		HeapVMA:    find(mem.RegionDalvikHeap),
		Linear:     find(mem.RegionLinearAlloc),
		JITVMA:     find(mem.RegionJITCache),
		JITEnabled: parent.JITEnabled,
		warm:       parent.warm,
		heapTop:    parent.heapTop,
		dexes:      make(map[string]*LoadedDex, len(parent.dexes)),
	}
	// One slab allocation covers every rebound dex view; which slab slot a
	// given dex lands in follows map order, but each entry's content depends
	// only on its name, so nothing observable varies.
	dexSlab := make([]LoadedDex, len(parent.dexes))
	di := 0
	for name, d := range parent.dexes {
		nd := &dexSlab[di]
		di++
		*nd = LoadedDex{File: d.File, VMA: find(d.VMA.Name), jit: make([]methodJIT, len(d.jit))}
		for i, m := range d.jit {
			nd.jit[i].compiled = m.compiled
		}
		vm.dexes[name] = nd
	}
	vm.heapCommit = vm.HeapVMA.ResidentBytes()
	vm.gcQueue = kernel.NewMsgQueue[gcReq](k, "dalvik.gc")
	vm.compileQueue = kernel.NewMsgQueue[compileReq](k, "dalvik.jit")
	if services {
		vm.spawnServices()
	}
	return vm
}

// trimSlack is how much headroom above the live bump pointer a trim keeps
// committed, so the next few allocations do not immediately fault pages
// back in.
const trimSlack = 1 << 20

// TrimMemory is the app side of onTrimMemory(TRIM_MEMORY_*): a collection
// pass over the live set, then madvise(MADV_DONTNEED) on everything above
// it, so a backgrounded app's dalvik heap stops holding physical pages it is
// not using. It returns the bytes released to the machine-wide budget.
func (vm *VM) TrimMemory(ex *kernel.Exec) uint64 {
	ex.InCode(vm.LibDVM, func() {
		// Mark the live prefix and madvise the tail: cheaper than a full
		// GC cycle, charged against the heap it walks.
		used := vm.heapTop
		if used > vm.HeapVMA.Size() {
			used = vm.HeapVMA.Size()
		}
		ex.Do(kernel.Work{Fetch: 3, Reads: 1, Data: vm.HeapVMA}, used/16)
		ex.Syscall(900, 250) // madvise
	})
	keep := vm.heapTop + trimSlack
	if keep >= vm.heapCommit {
		return 0
	}
	released := vm.Proc.AS.Discard(vm.HeapVMA, vm.heapCommit-keep)
	vm.heapCommit -= released
	return released
}

// CompilesDone reports completed JIT compilations.
func (vm *VM) CompilesDone() uint64 { return vm.compilesDone }

// ForceCompile marks method in d as JIT-compiled without charging any
// compiler work, so tests and benchmarks can drive the compiled cost model
// deterministically; it panics if d has no such method, as Exec does. Real
// promotion goes through the Compiler thread.
func (vm *VM) ForceCompile(d *LoadedDex, method string) {
	d.jit[d.method(method)].compiled = true
	vm.warm = true
}

// --- managed heap ---

// alloc carves n bytes from the dalvik heap, charging the zeroing writes,
// and triggers a concurrent GC cycle when enough has been allocated. When
// the arena is exhausted the bump pointer wraps, modelling a full stop-the-
// world collection compacting the heap.
func (vm *VM) alloc(ex *kernel.Exec, n uint64) uint64 {
	n = (n + 7) &^ 7
	if vm.heapTop+n > vm.HeapVMA.Size() {
		vm.heapTop = 16
		vm.gcRuns++
	}
	off := vm.heapTop
	vm.heapTop += n
	if vm.heapTop > vm.heapCommit {
		// First touch past a trimmed high-water mark: the discarded pages
		// fault back in and re-enter the machine-wide resident set.
		vm.heapCommit += vm.Proc.AS.Commit(vm.HeapVMA, vm.heapTop-vm.heapCommit)
	}
	ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: vm.HeapVMA}, n/8+2)
	vm.allocSinceGC += n
	if vm.allocSinceGC >= gcThreshold {
		vm.allocSinceGC = 0
		vm.gcQueue.Send(ex, gcReq{used: vm.heapTop})
	}
	return off
}

// AllocArray allocates an int32 array of the given length; returns its ref.
func (vm *VM) AllocArray(ex *kernel.Exec, length int64) uint64 {
	if length < 0 {
		length = 0
	}
	off := vm.alloc(ex, 8+uint64(length)*4)
	vm.store32(off, uint32(length))
	vm.zero(off+4, 4+uint64(length)*4)
	return off
}

// AllocObject allocates an object with nFields int32 fields.
func (vm *VM) AllocObject(ex *kernel.Exec, nFields int) uint64 {
	off := vm.alloc(ex, 8+uint64(nFields)*4)
	vm.store32(off, uint32(nFields))
	vm.zero(off+8, uint64(nFields)*4)
	return off
}

// ArrayLen reads an array's length header.
func (vm *VM) ArrayLen(ex *kernel.Exec, ref uint64) int64 {
	ex.Read(vm.HeapVMA, 1)
	return int64(vm.load32(ref))
}

// ArrayGet loads arr[idx]; out-of-bounds access panics (a thrown exception
// would abort the workload anyway, and panicking catches model bugs).
func (vm *VM) ArrayGet(ex *kernel.Exec, ref uint64, idx int64) int64 {
	vm.boundsCheck(ref, idx)
	ex.Read(vm.HeapVMA, 1)
	return int64(int32(vm.load32(ref + 8 + uint64(idx)*4)))
}

// ArrayPut stores arr[idx] = v.
func (vm *VM) ArrayPut(ex *kernel.Exec, ref uint64, idx, v int64) {
	vm.boundsCheck(ref, idx)
	ex.Write(vm.HeapVMA, 1)
	vm.store32(ref+8+uint64(idx)*4, uint32(int32(v)))
}

// FieldGet loads obj.field[i].
func (vm *VM) FieldGet(ex *kernel.Exec, ref uint64, field int) int64 {
	ex.Read(vm.HeapVMA, 1)
	return int64(int32(vm.load32(ref + 8 + uint64(field)*4)))
}

// FieldPut stores obj.field[i] = v.
func (vm *VM) FieldPut(ex *kernel.Exec, ref uint64, field int, v int64) {
	ex.Write(vm.HeapVMA, 1)
	vm.store32(ref+8+uint64(field)*4, uint32(int32(v)))
}

func (vm *VM) boundsCheck(ref uint64, idx int64) {
	n := int64(vm.load32(ref))
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("dalvik: index %d out of bounds (len %d)", idx, n))
	}
}

// --- heap pages ---

// leafPages is how many consecutive heap pages one heapLeaf maps.
const leafPages = 64

// heapLeaf is one second-level table of VM.pages.
type heapLeaf [leafPages]*[mem.PageSize]byte

// checkHeap panics unless [off, off+n) lies inside the heap arena: an
// access outside it is a model bug.
func (vm *VM) checkHeap(off, n uint64) {
	if n > HeapSize || off > HeapSize-n {
		panic(fmt.Sprintf("dalvik: heap access [%d,%d) outside the %d-byte arena", off, off+n, HeapSize))
	}
}

// load32 reads the little-endian word at heap offset off without
// materializing a page. A word can straddle two pages: InterpBulk leaves
// the bump pointer unaligned.
func (vm *VM) load32(off uint64) uint32 {
	vm.checkHeap(off, 4)
	var v uint32
	for i := range uint64(4) {
		if p := vm.page((off + i) / mem.PageSize); p != nil {
			v |= uint32(p[(off+i)%mem.PageSize]) << (8 * i)
		}
	}
	return v
}

// page returns heap page pi, or nil if nothing has written it.
func (vm *VM) page(pi uint64) *[mem.PageSize]byte {
	if l := vm.pages[pi/leafPages]; l != nil {
		return l[pi%leafPages]
	}
	return nil
}

// store32 writes the little-endian word at heap offset off.
func (vm *VM) store32(off uint64, v uint32) {
	vm.checkHeap(off, 4)
	for i := range uint64(4) {
		pi := (off + i) / mem.PageSize
		l := &vm.pages[pi/leafPages]
		if *l == nil {
			*l = new(heapLeaf)
		}
		p := &(*l)[pi%leafPages]
		if *p == nil {
			*p = new([mem.PageSize]byte)
		}
		(*p)[(off+i)%mem.PageSize] = byte(v >> (8 * i))
	}
}

// zero clears [off, off+n) of the heap. Absent pages already read as zero,
// so only materialized ones are touched.
func (vm *VM) zero(off, n uint64) {
	vm.checkHeap(off, n)
	for end := off + n; off < end; {
		next := min((off/mem.PageSize+1)*mem.PageSize, end)
		if p := vm.page(off / mem.PageSize); p != nil {
			clear(p[off%mem.PageSize : off%mem.PageSize+(next-off)])
		}
		off = next
	}
}

// --- service threads ---

// gcLoop is the "GC" thread: each request marks the live heap (reads) and
// sweeps (writes), then pokes HeapWorker to run finalizers.
func (vm *VM) gcLoop(ex *kernel.Exec) {
	ex.PushCode(vm.LibDVM)
	for {
		req := vm.gcQueue.Recv(ex)
		used := req.used
		if used < gcLiveFloor {
			used = gcLiveFloor
		}
		if used > vm.HeapVMA.Size() {
			used = vm.HeapVMA.Size()
		}
		// Mark: walk live objects (~60% of used bytes, one read per
		// word visited plus mark-bit writes).
		ex.Do(kernel.Work{Fetch: 4, Reads: 1, Data: vm.HeapVMA}, used*6/10/8)
		ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: vm.HeapVMA}, used/64)
		// Sweep: reclaim dead ranges.
		ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: vm.HeapVMA}, used*4/10/32)
		vm.gcRuns++
		if vm.heapWorkerWq != nil {
			vm.heapWorkerWq.WakeOne()
		}
	}
}

// compilerLoop is the "Compiler" thread: Gingerbread's trace JIT. Each
// request reads the method's bytecode repeatedly (trace formation + opt
// passes over the dex image), burns compiler CPU in libdvm.so, and emits
// machine code into dalvik-jit-code-cache.
func (vm *VM) compilerLoop(ex *kernel.Exec) {
	ex.PushCode(vm.LibDVM)
	for {
		req := vm.compileQueue.Recv(ex)
		m := req.d.File.Methods[req.mi]
		ilen := uint64(len(m.Code))
		if ilen < minTraceUnits {
			ilen = minTraceUnits
		}
		// Trace formation + IR passes: ~8 passes over the code words.
		ex.Do(kernel.Work{Fetch: 26, Reads: 1, Data: req.d.VMA}, ilen*8)
		// Codegen: ~10 emitted words per bytecode.
		emit := ilen * 10
		if vm.jitTop+emit*4 > vm.JITVMA.Size() {
			vm.jitTop = 0 // code cache flush, as Dalvik does when full
		}
		vm.jitTop += emit * 4
		ex.Do(kernel.Work{Fetch: 7, Writes: 1, Data: vm.JITVMA}, emit)
		if !req.trace {
			req.d.jit[req.mi].compiled = true
		}
		vm.warm = true
		vm.compilesDone++
	}
}
