// Package dalvik models the Dalvik virtual machine as the paper observes it:
// an interpreter whose dispatch loop executes from libdvm.so text, bytecode
// fetched as data reads from mapped dex images, a managed object heap in the
// "dalvik-heap" region, class metadata in "dalvik-LinearAlloc", a trace JIT
// writing into "dalvik-jit-code-cache", and the VM service threads
// ("Compiler", "GC", "HeapWorker", "Signal Catcher", "JDWP") that Table I of
// the paper ranks among the busiest in the system.
package dalvik

import (
	"fmt"
	"sync"

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
// paper's Figure 2 census.
type LoadedDex struct {
	File *dex.File
	VMA  *mem.VMA

	// pre caches each method's code pre-decoded from the serialized image
	// (images are immutable once mapped), so the interpreter's dispatch
	// loop never re-decodes instruction words. It comes from the per-file
	// decodedImage cache and is shared read-only by every VM loading the
	// file; interpreted and compiled activations both dispatch over it.
	pre [][]dex.Instr
}

// decodedImage is the immutable, shareable part of a loaded dex: the
// serialized bytes and the per-method code pre-decoded from them. It is
// derived purely from the *dex.File, so it is computed once per file and
// shared read-only by every VM — across kernels and suite workers — that
// loads it; re-serializing and re-decoding per process load dominated
// scenario allocations.
type decodedImage struct {
	img []byte
	pre [][]dex.Instr
}

var decodedImages sync.Map // *dex.File -> *decodedImage

func decodeImage(f *dex.File) *decodedImage {
	if d, ok := decodedImages.Load(f); ok {
		return d.(*decodedImage)
	}
	dec := &decodedImage{
		img: f.Serialize(),
		pre: make([][]dex.Instr, len(f.Methods)),
	}
	for i, m := range f.Methods {
		off := f.CodeOffset(i)
		dec.pre[i] = dex.DecodeCode(dec.img[off : off+uint64(4*len(m.Code))])
	}
	got, _ := decodedImages.LoadOrStore(f, dec)
	return got.(*decodedImage)
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
	trimsDone    uint64

	gcQueue      *kernel.MsgQueue
	compileQueue *kernel.MsgQueue

	compiled      map[methodKey]bool
	hot           map[methodKey]int
	jitTop        uint64
	sinceTrace    uint64
	compilesDone  uint64
	dexes         map[string]*LoadedDex
	serviceSpawns bool
	heapWorkerWq  *kernel.WaitQueue
}

type methodKey struct {
	dex    string
	method string
}

type compileReq struct {
	d   *LoadedDex
	mi  int
	key methodKey
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
		compiled:   make(map[methodKey]bool),
		hot:        make(map[methodKey]int),
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
	vm.gcQueue = k.NewMsgQueue(proc.Name + ".gc")
	vm.compileQueue = k.NewMsgQueue(proc.Name + ".jit")
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
		wq := k.NewWaitQueue(vm.Proc.Name + ".heapworker")
		vm.heapWorkerWq = wq
		for {
			ex.Wait(wq)
			// Finalizer sweep: touch a slice of the heap.
			ex.Do(kernel.Work{Fetch: 2, Reads: 1, Data: vm.HeapVMA}, 2000)
		}
	})
	k.SpawnThread(vm.Proc, "Signal Catcher", "Signal Catcher", func(ex *kernel.Exec) {
		ex.PushCode(vm.LibDVM)
		ex.Wait(k.NewWaitQueue(vm.Proc.Name + ".sigcatch"))
	})
	k.SpawnThread(vm.Proc, "JDWP", "JDWP", func(ex *kernel.Exec) {
		ex.PushCode(vm.LibDVM)
		ex.Wait(k.NewWaitQueue(vm.Proc.Name + ".jdwp"))
	})
}

// LoadDex maps file into the process as "<file name>@classes.dex", writes the
// serialized image through the page cache (a real dalvik-cache image would
// be mmapped; we charge the map-and-verify cost), and charges class-metadata
// writes to dalvik-LinearAlloc.
func (vm *VM) LoadDex(ex *kernel.Exec, file *dex.File) *LoadedDex {
	if d, ok := vm.dexes[file.Name]; ok {
		return d
	}
	dec := decodeImage(file)
	img := dec.img
	name := file.Name + "@classes.dex"
	v := vm.Proc.AS.MapAnywhere(mem.MmapBase, uint64(len(img)), name,
		mem.PermRead, mem.ClassData)
	copy(v.Bytes(), img)
	d := &LoadedDex{File: file, VMA: v, pre: dec.pre}
	vm.dexes[file.Name] = d

	// Class loading: walk the image (reads) and populate LinearAlloc
	// metadata (writes).
	words := uint64(len(img)) / 4
	ex.InCode(vm.LibDVM, func() {
		ex.Do(kernel.Work{Fetch: 3, Reads: 1, Data: v}, words/4)
		ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: vm.Linear}, 64*uint64(len(file.Methods))+words/16)
	})
	return d
}

// Dex returns the loaded image for name, or nil.
func (vm *VM) Dex(name string) *LoadedDex { return vm.dexes[name] }

// Adopt wraps an already-mapped image (for example the loader-mapped
// "framework.jar@classes.dex" region) as a LoadedDex backed by file, so
// framework-bytecode interpretation reads the image the linker mapped. The
// mapping must be at least file.Size() bytes; the serialized image is
// written into it.
func (vm *VM) Adopt(file *dex.File, v *mem.VMA) *LoadedDex {
	if d, ok := vm.dexes[file.Name]; ok {
		return d
	}
	dec := decodeImage(file)
	img := dec.img
	if uint64(len(img)) > v.Size() {
		panic(fmt.Sprintf("dalvik: image %s (%d bytes) larger than mapping %s", file.Name, len(img), v.Name))
	}
	copy(v.Slice(0, uint64(len(img))), img)
	d := &LoadedDex{File: file, VMA: v, pre: dec.pre}
	vm.dexes[file.Name] = d
	return d
}

// ForkVM builds the child-process view of parent's VM after a fork: the
// child's address space already holds copies/aliases of every runtime arena
// and dex image (zygote semantics), so the new VM simply rebinds to the
// child's VMAs. JIT state is inherited warm, as zygote children inherit the
// preloaded-class world. VM service threads are spawned fresh in the child
// when services is true.
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
		heapTop:    parent.heapTop,
		compiled:   make(map[methodKey]bool, len(parent.compiled)),
		hot:        make(map[methodKey]int),
		dexes:      make(map[string]*LoadedDex, len(parent.dexes)),
	}
	for k2, v := range parent.compiled {
		vm.compiled[k2] = v
	}
	// One slab allocation covers every rebound dex view; which slab slot a
	// given dex lands in follows map order, but each entry's content depends
	// only on its name, so nothing observable varies.
	dexSlab := make([]LoadedDex, len(parent.dexes))
	di := 0
	for name, d := range parent.dexes {
		nd := &dexSlab[di]
		di++
		*nd = LoadedDex{File: d.File, VMA: find(d.VMA.Name), pre: d.pre}
		vm.dexes[name] = nd
	}
	vm.heapCommit = vm.HeapVMA.ResidentBytes()
	vm.gcQueue = k.NewMsgQueue(child.Name + ".gc")
	vm.compileQueue = k.NewMsgQueue(child.Name + ".jit")
	if services {
		vm.spawnServices()
	}
	return vm
}

// GCRuns reports completed collection cycles (for tests and ablations).
func (vm *VM) GCRuns() uint64 { return vm.gcRuns }

// Trims reports completed TrimMemory passes.
func (vm *VM) Trims() uint64 { return vm.trimsDone }

// HeapResidentBytes reports how many bytes of the dalvik heap currently pin
// physical pages.
func (vm *VM) HeapResidentBytes() uint64 { return vm.heapCommit }

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
	vm.trimsDone++
	return released
}

// CompilesDone reports completed JIT compilations.
func (vm *VM) CompilesDone() uint64 { return vm.compilesDone }

// ForceCompile marks method in d as JIT-compiled without charging any
// compiler work, so tests and benchmarks can drive the compiled cost model
// deterministically. Real promotion goes through the Compiler thread.
func (vm *VM) ForceCompile(d *LoadedDex, method string) {
	vm.compiled[methodKey{dex: d.File.Name, method: method}] = true
}

// HeapUsed reports the current bump-pointer offset.
func (vm *VM) HeapUsed() uint64 { return vm.heapTop }

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
		ex.Send(vm.gcQueue, gcReq{used: vm.heapTop})
	}
	return off
}

// AllocArray allocates an int32 array of the given length; returns its ref.
func (vm *VM) AllocArray(ex *kernel.Exec, length int64) uint64 {
	if length < 0 {
		length = 0
	}
	off := vm.alloc(ex, 8+uint64(length)*4)
	b := vm.HeapVMA.Slice(off, 8)
	putU32(b, uint32(length))
	for i := range b[4:] {
		b[4+i] = 0
	}
	zero(vm.HeapVMA.Slice(off+8, uint64(length)*4))
	return off
}

// AllocObject allocates an object with nFields int32 fields.
func (vm *VM) AllocObject(ex *kernel.Exec, nFields int) uint64 {
	off := vm.alloc(ex, 8+uint64(nFields)*4)
	putU32(vm.HeapVMA.Slice(off, 4), uint32(nFields))
	zero(vm.HeapVMA.Slice(off+8, uint64(nFields)*4))
	return off
}

// ArrayLen reads an array's length header.
func (vm *VM) ArrayLen(ex *kernel.Exec, ref uint64) int64 {
	ex.Read(vm.HeapVMA, 1)
	return int64(getU32(vm.HeapVMA.Slice(ref, 4)))
}

// ArrayGet loads arr[idx]; out-of-bounds access panics (a thrown exception
// would abort the workload anyway, and panicking catches model bugs).
func (vm *VM) ArrayGet(ex *kernel.Exec, ref uint64, idx int64) int64 {
	vm.boundsCheck(ref, idx)
	ex.Read(vm.HeapVMA, 1)
	return int64(int32(getU32(vm.HeapVMA.Slice(ref+8+uint64(idx)*4, 4))))
}

// ArrayPut stores arr[idx] = v.
func (vm *VM) ArrayPut(ex *kernel.Exec, ref uint64, idx, v int64) {
	vm.boundsCheck(ref, idx)
	ex.Write(vm.HeapVMA, 1)
	putU32(vm.HeapVMA.Slice(ref+8+uint64(idx)*4, 4), uint32(int32(v)))
}

// FieldGet loads obj.field[i].
func (vm *VM) FieldGet(ex *kernel.Exec, ref uint64, field int) int64 {
	ex.Read(vm.HeapVMA, 1)
	return int64(int32(getU32(vm.HeapVMA.Slice(ref+8+uint64(field)*4, 4))))
}

// FieldPut stores obj.field[i] = v.
func (vm *VM) FieldPut(ex *kernel.Exec, ref uint64, field int, v int64) {
	ex.Write(vm.HeapVMA, 1)
	putU32(vm.HeapVMA.Slice(ref+8+uint64(field)*4, 4), uint32(int32(v)))
}

func (vm *VM) boundsCheck(ref uint64, idx int64) {
	n := int64(getU32(vm.HeapVMA.Slice(ref, 4)))
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("dalvik: index %d out of bounds (len %d)", idx, n))
	}
}

// --- service threads ---

// gcLoop is the "GC" thread: each request marks the live heap (reads) and
// sweeps (writes), then pokes HeapWorker to run finalizers.
func (vm *VM) gcLoop(ex *kernel.Exec) {
	ex.PushCode(vm.LibDVM)
	for {
		req := ex.Recv(vm.gcQueue).(gcReq)
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
		req := ex.Recv(vm.compileQueue).(compileReq)
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
		vm.compiled[req.key] = true
		vm.compilesDone++
	}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
