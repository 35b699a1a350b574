package mem

import (
	"fmt"
	"sort"

	"agave/internal/stats"
)

// AddressSpace is one process's virtual memory map: a sorted, non-overlapping
// set of VMAs.
//
// The address space also keeps the resident-set accounting the kernel's
// memory-pressure model is fed by: every Map/Unmap/Discard/Commit updates
// a per-class page count, and the OnResident hook reports the delta to the
// owner (the kernel's global physical-page budget). Only writable non-kernel
// mappings count — read-only file pages are evictable cache and the kernel
// direct map is shared physical memory, so neither pins pages. Shared
// writable mappings (ashmem, gralloc) count once per address space that maps
// them, a deliberate simplification.
type AddressSpace struct {
	vmas []*VMA // sorted by Start

	collector *stats.Collector

	// OnResident, when non-nil, observes every resident-page delta. The
	// kernel attaches it so process mappings feed the machine-wide page
	// budget; leave nil for standalone spaces.
	OnResident func(deltaPages int64)

	residentPages uint64
	classPages    [ClassRuntime + 1]uint64

	// lookup cache: the last VMA hit. Valid because the simulator advances
	// one thread at a time.
	last *VMA

	// vmaSlab is a chunked allocator for VMA structs: Map is called dozens
	// of times per process launch, and individual VMA allocations were a
	// measurable share of scenario allocs. Entries are handed out zeroed.
	vmaSlab []VMA
}

// NewAddressSpace returns an empty map whose VMAs intern their region names
// into c.
func NewAddressSpace(c *stats.Collector) *AddressSpace {
	return &AddressSpace{collector: c}
}

// Collector exposes the stats collector used for region interning.
func (as *AddressSpace) Collector() *stats.Collector { return as.collector }

// ResidentPages reports the pressure-relevant resident set of the whole
// address space, in pages.
func (as *AddressSpace) ResidentPages() uint64 { return as.residentPages }

// ResidentPagesByClass reports the resident pages of one region class.
func (as *AddressSpace) ResidentPagesByClass(c Class) uint64 {
	if int(c) >= len(as.classPages) {
		return 0
	}
	return as.classPages[c]
}

// countable reports whether a mapping pins physical pages in the pressure
// model: writable (dirty-able) and not the shared kernel image.
func countable(v *VMA) bool {
	return v.Perms&PermWrite != 0 && v.Class != ClassKernel
}

// addResident applies a resident-byte delta to v and to the per-class and
// whole-space page counts, reporting the page delta through OnResident.
// deltaBytes must be page-aligned.
func (as *AddressSpace) addResident(v *VMA, deltaBytes int64) {
	if deltaBytes == 0 || !countable(v) {
		return
	}
	pages := deltaBytes / PageSize
	v.resident = uint64(int64(v.resident) + deltaBytes)
	as.residentPages = uint64(int64(as.residentPages) + pages)
	if int(v.Class) < len(as.classPages) {
		as.classPages[v.Class] = uint64(int64(as.classPages[v.Class]) + pages)
	}
	if as.OnResident != nil {
		as.OnResident(pages)
	}
}

// invalidate drops the lookup cache when a mutation touches [start, end).
// Every mutation of the map (Map, Unmap) funnels through this, so the
// cache can never outlive a VMA whose range it covers: a freed-and-remapped
// range always resolves through the authoritative sorted slice.
func (as *AddressSpace) invalidate(start, end Addr) {
	if as.last != nil && as.last.Start < end && start < as.last.End {
		as.last = nil
	}
}

// Map installs a VMA covering [start, start+size). size is rounded up to a
// whole number of pages. It returns an error if the range overlaps an
// existing mapping.
func (as *AddressSpace) Map(start Addr, size uint64, name string, perms Perm, class Class) (*VMA, error) {
	size = roundUp(size)
	if size == 0 {
		return nil, fmt.Errorf("mem: zero-size mapping %q", name)
	}
	end := start + size
	if i := as.overlapIndexExcept(start, end, nil); i >= 0 {
		return nil, fmt.Errorf("mem: mapping %q [%#x,%#x) overlaps %s", name, start, end, as.vmas[i])
	}
	v := as.newVMA()
	v.Start = start
	v.End = end
	v.Name = name
	v.Perms = perms
	v.Class = class
	v.Region = as.collector.Region(name)
	as.insert(v)
	as.invalidate(v.Start, v.End)
	as.addResident(v, int64(size))
	return v, nil
}

// MapAnywhere installs a VMA of the given size at the lowest free gap at or
// above hint.
func (as *AddressSpace) MapAnywhere(hint Addr, size uint64, name string, perms Perm, class Class) *VMA {
	size = roundUp(size)
	start := as.findGap(hint, size)
	v, err := as.Map(start, size, name, perms, class)
	if err != nil {
		// findGap guarantees no overlap; reaching here is a bug.
		panic(err)
	}
	return v
}

// MapShared installs a VMA aliasing the backing store of src (which may
// belong to another address space), at the lowest free gap at or above hint.
// The new VMA shares src's name, class, and bytes.
func (as *AddressSpace) MapShared(hint Addr, src *VMA, perms Perm) *VMA {
	// A frozen fork snapshot cannot be aliased: the first write on either
	// side would thaw it into a private copy and the alias would diverge.
	// ensure(0) thaws src (and creates its store if absent) before sharing;
	// later in-place growth keeps every alias in sync because all aliases
	// hold the same store struct.
	src.ensure(0)
	v := as.MapAnywhere(hint, src.Size(), src.Name, perms, src.Class)
	v.Shared = true
	v.store = src.store
	src.Shared = true
	return v
}

// Unmap removes the VMA. It is an error to unmap a VMA not in this space.
func (as *AddressSpace) Unmap(v *VMA) error {
	i := as.search(v.Start)
	if i == len(as.vmas) || as.vmas[i] != v {
		return fmt.Errorf("mem: unmap of unknown VMA %s", v)
	}
	as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	as.invalidate(v.Start, v.End)
	as.addResident(v, -int64(v.resident))
	return nil
}

// Discard releases up to bytes of v's resident pages without unmapping it —
// the madvise(MADV_DONTNEED) a trimming runtime issues on the free tail of
// its heap. The amount is rounded up to whole pages and clamped to what is
// resident; the bytes actually released are returned.
func (as *AddressSpace) Discard(v *VMA, bytes uint64) uint64 {
	if !countable(v) {
		return 0
	}
	bytes = roundUp(bytes)
	if bytes > v.resident {
		bytes = v.resident
	}
	as.addResident(v, -int64(bytes))
	return bytes
}

// Commit re-commits bytes of v after a Discard (the page faults of touching
// discarded pages again), capped at the mapping size. It returns the bytes
// actually committed.
func (as *AddressSpace) Commit(v *VMA, bytes uint64) uint64 {
	if !countable(v) {
		return 0
	}
	bytes = roundUp(bytes)
	if v.resident+bytes > v.Size() {
		bytes = v.Size() - v.resident
	}
	as.addResident(v, int64(bytes))
	return bytes
}

// Find resolves addr to its containing VMA, or nil when unmapped.
func (as *AddressSpace) Find(addr Addr) *VMA {
	if as.last != nil && as.last.Contains(addr) {
		return as.last
	}
	i := as.search(addr)
	if i < len(as.vmas) && as.vmas[i].Contains(addr) {
		as.last = as.vmas[i]
		return as.vmas[i]
	}
	return nil
}

// FindByName returns the first VMA with the given name, or nil.
func (as *AddressSpace) FindByName(name string) *VMA {
	for _, v := range as.vmas {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// VMAs returns the mappings in address order. The caller must not mutate the
// slice.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Count reports the number of mappings.
func (as *AddressSpace) Count() int { return len(as.vmas) }

// Clone produces the child address space of a fork. Shared and read-only
// VMAs alias the parent's backing store (zygote's copy-on-write model: text,
// preloaded heaps); writable private VMAs are snapshotted copy-on-write: the
// store is frozen and shared with the child, and the first Slice on either
// side thaws it into a private copy (VMA.ensure). A fork therefore copies no
// arena bytes at all — the zygote's preloaded-but-mostly-idle heaps cost
// nothing until a side actually writes them.
func (as *AddressSpace) Clone() *AddressSpace {
	child := NewAddressSpace(as.collector)
	// One slab for all child VMA structs: address spaces here have dozens of
	// mappings, and forks are frequent enough that per-VMA allocations were a
	// measurable share of scenario allocs.
	slab := make([]VMA, len(as.vmas))
	child.vmas = make([]*VMA, len(as.vmas))
	for i, v := range as.vmas {
		nv := &slab[i]
		nv.Start = v.Start
		nv.End = v.End
		nv.Name = v.Name
		nv.Perms = v.Perms
		nv.Class = v.Class
		nv.Region = v.Region
		nv.Shared = v.Shared
		nv.resident = v.resident
		if countable(nv) {
			child.residentPages += nv.resident / PageSize
			if int(nv.Class) < len(child.classPages) {
				child.classPages[nv.Class] += nv.resident / PageSize
			}
		}
		switch {
		case v.Shared || v.Perms&PermWrite == 0:
			nv.store = v.store
		case v.store != nil && v.store.hi > 0:
			// Freeze the touched snapshot and share it. Neither side may
			// mutate a frozen store, so this is safe across repeated forks:
			// untouched children all reference the same immutable snapshot.
			v.store.frozen = true
			nv.store = v.store
		}
		// A writable private store with hi == 0 has no touched bytes: the
		// child starts unmaterialized, which reads identically (all zero).
		child.vmas[i] = nv
	}
	return child
}

// newVMA hands out a zeroed VMA struct from the chunked slab.
func (as *AddressSpace) newVMA() *VMA {
	if len(as.vmaSlab) == 0 {
		as.vmaSlab = make([]VMA, 16)
	}
	v := &as.vmaSlab[0]
	as.vmaSlab = as.vmaSlab[1:]
	return v
}

func (as *AddressSpace) insert(v *VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// search returns the index of the first VMA ending above addr: the one
// containing addr if any, else the first one after it. The slice is sorted
// and disjoint, so End increases with the index.
func (as *AddressSpace) search(addr Addr) int {
	return sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
}

// overlapIndexExcept returns the lowest index of a VMA other than skip that
// overlaps [start, end), or -1.
func (as *AddressSpace) overlapIndexExcept(start, end Addr, skip *VMA) int {
	for i := as.search(start); i < len(as.vmas) && as.vmas[i].Start < end; i++ {
		if as.vmas[i] != skip {
			return i
		}
	}
	return -1
}

// findGap locates the lowest page-aligned start ≥ hint such that
// [start, start+size) is unmapped: from the first VMA ending above the
// rounded hint, it steps past each mapping the candidate range still
// overlaps.
func (as *AddressSpace) findGap(hint Addr, size uint64) Addr {
	start := roundUp(hint)
	for i := as.search(start); i < len(as.vmas) && as.vmas[i].Start < start+size; i++ {
		start = as.vmas[i].End
	}
	return start
}

func roundUp(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}
