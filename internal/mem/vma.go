// Package mem models per-process virtual memory as the paper measures it:
// each address space is an ordered set of named virtual memory areas (VMAs),
// and every simulated access resolves to the VMA containing its address. The
// VMA *name* ("libdvm.so", "dalvik-heap", "gralloc-buffer", "anonymous", ...)
// is the unit of the paper's Figures 1 and 2.
package mem

import (
	"fmt"

	"agave/internal/stats"
)

// Addr is a simulated 32-bit virtual address (held in 64 bits for headroom).
type Addr = uint64

// PageSize is the simulated page size.
const PageSize = 4096

// Perm is a VMA permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders perms in /proc/pid/maps style.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Class is a coarse taxonomy of regions used by reporting and by layout
// decisions. The figures key on names, but the class drives behaviours such
// as which regions fork shares versus copies.
type Class uint8

// Region classes.
const (
	ClassText    Class = iota // an executable image: app binary or .so text
	ClassData                 // an image's writable data segment
	ClassHeap                 // the classic brk heap
	ClassStack                // a main-thread stack
	ClassAnon                 // anonymous mmap (includes thread stacks)
	ClassShared               // shared between processes (ashmem, gralloc, ...)
	ClassDevice               // device mapping (fb0, binder, ...)
	ClassKernel               // the pseudo-region for kernel-mode execution
	ClassRuntime              // managed-runtime arenas (dalvik-heap, LinearAlloc, jit cache, mspace)
)

// VMA is one contiguous mapped region [Start, End) of an address space.
type VMA struct {
	Start Addr
	End   Addr
	Name  string
	Perms Perm
	Class Class

	// Region is the interned stats ID for Name, cached so the accounting
	// hot path avoids string work.
	Region stats.RegionID

	// Shared marks mappings whose backing is shared across address spaces
	// (and therefore across fork).
	Shared bool

	// resident is the number of bytes of the mapping currently backed by
	// physical pages, as the owning AddressSpace accounts them. Only
	// pressure-relevant mappings (writable, non-kernel) are tracked; it is
	// maintained by AddressSpace.Map/Unmap/Discard/Commit.
	resident uint64

	store *store
}

// ResidentBytes reports how many bytes of the VMA the physical-page
// accounting currently counts as resident. Read-only and kernel mappings
// report zero: their pages are clean file cache (or the shared kernel image)
// and never pin memory in the pressure model.
func (v *VMA) ResidentBytes() uint64 { return v.resident }

// Size reports the VMA length in bytes.
func (v *VMA) Size() uint64 { return v.End - v.Start }

// Contains reports whether addr falls inside the VMA.
func (v *VMA) Contains(addr Addr) bool { return addr >= v.Start && addr < v.End }

// String renders the VMA in /proc/pid/maps style.
func (v *VMA) String() string {
	return fmt.Sprintf("%08x-%08x %s %s", v.Start, v.End, v.Perms, v.Name)
}

// Slice returns a mutable view of n bytes starting at byte offset off within
// the VMA, materializing backing storage on first touch. Programs that do
// real computation on simulated memory (decoders, rasterizers, interpreters)
// operate on these views.
//
// Views are transient: growth (and thawing of a fork snapshot) replaces the
// backing array, copying the touched prefix, so a view taken before an
// intervening Slice call on the same store may alias stale — but
// byte-identical — memory. Callers must re-Slice before writing after any
// other Slice on the same store (see docs/ARCHITECTURE.md, "Hot path &
// pooling").
func (v *VMA) Slice(off, n uint64) []byte {
	end := off + n
	if end > v.Size() {
		panic(fmt.Sprintf("mem: slice [%d,%d) outside %s of size %d", off, end, v.Name, v.Size()))
	}
	s := v.store
	if s == nil || s.frozen || uint64(len(s.data)) < end {
		s = v.ensure(end)
	}
	if end > s.hi {
		s.hi = end
	}
	return s.data[off:end]
}

// Bytes returns a mutable view of the whole VMA.
func (v *VMA) Bytes() []byte { return v.Slice(0, v.Size()) }

// ensure gives v a private, writable store whose backing array covers at
// least [0, end). It handles the two slow paths Slice kicks out to:
//
//   - a frozen store (snapshotted by a fork): replaced with a private copy
//     of the touched prefix, leaving the snapshot untouched for the other
//     side of the fork;
//   - a backing array shorter than end: grown in place (the store struct is
//     retained so shared mappings aliasing it observe the growth) with
//     amortized doubling capped at the VMA size.
//
// Either way only data[:hi] is copied — data[hi:] is all-zero by the Slice
// invariant, and fresh arrays are already zero.
func (v *VMA) ensure(end uint64) *store {
	s := v.store
	if s == nil {
		s = &store{}
		v.store = s
	}
	if s.frozen {
		// Thaw: this side of the fork touches the mapping first (or again);
		// give it a private array covering end. The array never shrinks below
		// the snapshot's: the snapshot's hi can exceed grownLen(end), and
		// every byte below hi must survive the thaw.
		want := grownLen(end, v.Size())
		if n := uint64(len(s.data)); n > want {
			want = n
		}
		data := make([]byte, want)
		copy(data, s.data[:s.hi])
		ns := &store{data: data, hi: s.hi}
		v.store = ns
		return ns
	}
	if uint64(len(s.data)) < end {
		data := make([]byte, grownLen(end, v.Size()))
		copy(data, s.data[:s.hi])
		s.data = data
	}
	return s
}

// grownLen picks the new backing length for a store that must cover at least
// need bytes of a VMA of size max: amortized doubling from a one-page floor,
// capped at the mapping size.
func grownLen(need, max uint64) uint64 {
	if need >= max {
		return max
	}
	n := uint64(PageSize)
	for n < need {
		n <<= 1
	}
	if n > max {
		n = max
	}
	return n
}

// store is the byte backing of a VMA. Shared VMAs alias one store across
// address spaces; private VMAs copy on write after fork.
//
// hi is the touched high-water mark: every mutable view of the backing is
// handed out by Slice, which raises hi past the view's end, so data[hi:] is
// guaranteed all-zero. The backing array is grown on demand (amortized
// doubling, capped at the mapping size), so len(data) can be anywhere from 0
// to the VMA size; untouched tail bytes read as zero once grown.
//
// frozen marks a snapshot shared between a forked parent and child: neither
// data nor hi may be mutated while set. The first Slice on either side thaws
// the mapping by installing a private copy of the touched prefix (see
// VMA.ensure), which is exactly copy-on-write at store granularity — repeated
// forks of untouched arenas copy nothing.
type store struct {
	data   []byte
	hi     uint64
	frozen bool
}
