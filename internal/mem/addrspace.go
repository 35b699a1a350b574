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
// the resident page count, and the OnResident hook reports the delta to the
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

// ResidentPages reports the pressure-relevant resident set of the whole
// address space, in pages.
func (as *AddressSpace) ResidentPages() uint64 { return as.residentPages }

// countable reports whether a mapping pins physical pages in the pressure
// model: writable (dirty-able) and not the shared kernel image.
func countable(v *VMA) bool {
	return v.Perms&PermWrite != 0 && v.Class != ClassKernel
}

// addResident applies a resident-byte delta to v and to the whole-space
// page count, reporting the page delta through OnResident.
// deltaBytes must be page-aligned.
func (as *AddressSpace) addResident(v *VMA, deltaBytes int64) {
	if deltaBytes == 0 || !countable(v) {
		return
	}
	pages := deltaBytes / PageSize
	v.resident = uint64(int64(v.resident) + deltaBytes)
	as.residentPages = uint64(int64(as.residentPages) + pages)
	if as.OnResident != nil {
		as.OnResident(pages)
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
	if i := as.overlapIndex(start, end); i >= 0 {
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

// Unmap removes the VMA. It is an error to unmap a VMA not in this space.
func (as *AddressSpace) Unmap(v *VMA) error {
	i := as.search(v.Start)
	if i == len(as.vmas) || as.vmas[i] != v {
		return fmt.Errorf("mem: unmap of unknown VMA %s", v)
	}
	as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
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
	if i := as.search(addr); i < len(as.vmas) && as.vmas[i].Contains(addr) {
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

// Count reports the number of mappings.
func (as *AddressSpace) Count() int { return len(as.vmas) }

// Clone produces the child address space of a fork: the same VMAs (name,
// range, permissions, class and resident pages) as fresh structs the child
// owns, so the two sides map, unmap, discard and commit independently.
func (as *AddressSpace) Clone() *AddressSpace {
	child := NewAddressSpace(as.collector)
	// One slab for all child VMA structs: address spaces here have dozens of
	// mappings, and forks are frequent enough that per-VMA allocations were a
	// measurable share of scenario allocs.
	slab := make([]VMA, len(as.vmas))
	child.vmas = make([]*VMA, len(as.vmas))
	for i, v := range as.vmas {
		nv := &slab[i]
		*nv = *v
		if countable(nv) {
			child.residentPages += nv.resident / PageSize
		}
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

// overlapIndex returns the lowest index of a VMA that overlaps
// [start, end), or -1.
func (as *AddressSpace) overlapIndex(start, end Addr) int {
	if i := as.search(start); i < len(as.vmas) && as.vmas[i].Start < end {
		return i
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
