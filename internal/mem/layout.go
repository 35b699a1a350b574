package mem

// Canonical region names. These strings are the figure legend entries of the
// paper, so they are defined once here and used verbatim everywhere.
const (
	RegionKernel      = "OS kernel"
	RegionAppBinary   = "app binary"
	RegionHeap        = "heap"
	RegionStack       = "stack"
	RegionAnonymous   = "anonymous"
	RegionMspace      = "mspace"
	RegionDalvikHeap  = "dalvik-heap"
	RegionLinearAlloc = "dalvik-LinearAlloc"
	RegionJITCache    = "dalvik-jit-code-cache"
	RegionGralloc     = "gralloc-buffer"
	RegionFramebuffer = "fb0 (frame buffer)"
	RegionLibDVM      = "libdvm.so"
	RegionLibSkia     = "libskia.so"
	RegionLibC        = "libc.so"
	RegionStagefright = "libstagefright.so"
	RegionCR3Engine   = "libcr3engine-3-1-1.so"
)

// Classic 32-bit ARM Linux layout anchors (Gingerbread era).
const (
	TextBase  Addr = 0x0000_8000 // app binary text
	HeapBase  Addr = 0x0010_0000 // brk heap start
	MmapBase  Addr = 0x4000_0000 // shared libraries and anonymous mmaps
	StackTop  Addr = 0xbf00_0000 // main stack grows down from here
	KernelVA  Addr = 0xc000_0000 // kernel direct map
	KernelLen      = 0x1000_0000
)

// DefaultStackSize is the main-thread stack reservation.
const DefaultStackSize = 8 << 20

// ThreadStackSize is the pthread stack mmap size (anonymous region, as on
// real Gingerbread where thread stacks are anonymous mmaps).
const ThreadStackSize = 1 << 20

// Layout installs the canonical skeleton of a process address space: app
// binary text, heap, main stack, and the kernel pseudo-region. Library and
// runtime regions are layered on by the loader and the runtime models.
type Layout struct {
	Text   *VMA
	Heap   *VMA
	Stack  *VMA
	Kernel *VMA
	// NextLib is the bump pointer used when mapping shared libraries.
	NextLib Addr
}

// NewLayout builds the skeleton in as. textSize and heapSize are rounded up
// to pages.
func NewLayout(as *AddressSpace, textSize, heapSize uint64) *Layout {
	l := &Layout{NextLib: MmapBase}
	var err error
	if l.Text, err = as.Map(TextBase, textSize, RegionAppBinary, PermRead|PermExec, ClassText); err != nil {
		panic(err)
	}
	heapBase := HeapBase
	if l.Text.End > heapBase {
		heapBase = l.Text.End
	}
	if l.Heap, err = as.Map(heapBase, heapSize, RegionHeap, PermRead|PermWrite, ClassHeap); err != nil {
		panic(err)
	}
	if l.Stack, err = as.Map(StackTop-DefaultStackSize, DefaultStackSize, RegionStack, PermRead|PermWrite, ClassStack); err != nil {
		panic(err)
	}
	if l.Kernel, err = as.Map(KernelVA, KernelLen, RegionKernel, PermRead|PermWrite|PermExec, ClassKernel); err != nil {
		panic(err)
	}
	return l
}

// MapLibrary maps a shared object's text at the lib bump pointer and returns
// the text VMA. A writable data segment named like "name (data)" is mapped
// immediately after when dataSize > 0; it is returned second.
func (l *Layout) MapLibrary(as *AddressSpace, name string, textSize, dataSize uint64) (text, data *VMA) {
	text = as.MapAnywhere(l.NextLib, textSize, name, PermRead|PermExec, ClassText)
	l.NextLib = text.End
	if dataSize > 0 {
		data = as.MapAnywhere(l.NextLib, dataSize, name+" (data)", PermRead|PermWrite, ClassData)
		l.NextLib = data.End
	}
	return text, data
}

// MapAnon maps an anonymous region (thread stacks, big mallocs above
// MMAP_THRESHOLD, scratch arenas). All anonymous mappings share the single
// "anonymous" region name, as in the paper's Linux accounting.
func (l *Layout) MapAnon(as *AddressSpace, size uint64) *VMA {
	v := as.MapAnywhere(l.NextLib, size, RegionAnonymous, PermRead|PermWrite, ClassAnon)
	l.NextLib = v.End
	return v
}
