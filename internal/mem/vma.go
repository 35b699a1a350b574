// Package mem models per-process virtual memory as the paper measures it:
// each address space is an ordered set of named virtual memory areas (VMAs),
// and every simulated access resolves to the VMA containing its address. The
// VMA *name* ("libdvm.so", "dalvik-heap", "gralloc-buffer", "anonymous", ...)
// is the unit of the paper's Figures 1 and 2.
//
// A VMA holds no bytes: it is a named, permissioned range with resident-page
// accounting. The measurements are folds over attributed reference counts,
// so simulated memory needs contents only where a program reads back what
// it wrote, and the one such reader, Dalvik's object heap, keeps its own.
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

// Class is a coarse taxonomy of regions. The figures key on names; the
// class tells the resident-page accounting which mappings never pin pages
// (the kernel pseudo-region).
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

	// resident is the number of bytes of the mapping currently backed by
	// physical pages, as the owning AddressSpace accounts them. Only
	// pressure-relevant mappings (writable, non-kernel) are tracked; it is
	// maintained by AddressSpace.Map/Unmap/Discard/Commit.
	resident uint64
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
