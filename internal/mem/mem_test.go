package mem

import (
	"fmt"
	"testing"
	"testing/quick"

	"agave/internal/sim"
	"agave/internal/stats"
)

func newAS() *AddressSpace { return NewAddressSpace(stats.NewCollector()) }

func TestMapAndFind(t *testing.T) {
	as := newAS()
	v, err := as.Map(0x1000, 0x2000, "libdvm.so", PermRead|PermExec, ClassText)
	if err != nil {
		t.Fatal(err)
	}
	if got := as.Find(0x1000); got != v {
		t.Fatal("Find(start) missed")
	}
	if got := as.Find(0x2fff); got != v {
		t.Fatal("Find(end-1) missed")
	}
	if got := as.Find(0x3000); got != nil {
		t.Fatal("Find(end) should be unmapped")
	}
	if got := as.Find(0xfff); got != nil {
		t.Fatal("Find(start-1) should be unmapped")
	}
}

func TestMapOverlapRejected(t *testing.T) {
	as := newAS()
	if _, err := as.Map(0x1000, 0x2000, "a", PermRead, ClassAnon); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(0x2000, 0x2000, "b", PermRead, ClassAnon); err == nil {
		t.Fatal("overlapping map accepted")
	}
	if _, err := as.Map(0x0, 0x1001, "c", PermRead, ClassAnon); err == nil {
		t.Fatal("overlapping map accepted")
	}
	// Adjacent is fine.
	if _, err := as.Map(0x3000, 0x1000, "d", PermRead, ClassAnon); err != nil {
		t.Fatalf("adjacent map rejected: %v", err)
	}
}

func TestMapRoundsToPages(t *testing.T) {
	as := newAS()
	v, err := as.Map(0x1000, 100, "x", PermRead, ClassAnon)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != PageSize {
		t.Fatalf("size = %d, want one page", v.Size())
	}
}

func TestZeroSizeMapRejected(t *testing.T) {
	as := newAS()
	if _, err := as.Map(0x1000, 0, "x", PermRead, ClassAnon); err == nil {
		t.Fatal("zero-size map accepted")
	}
}

func TestMapAnywhereSkipsGaps(t *testing.T) {
	as := newAS()
	mustMap(t, as, 0x10000, 0x1000, "a")
	mustMap(t, as, 0x12000, 0x1000, "b")
	v := as.MapAnywhere(0x10000, 0x1000, "c", PermRead, ClassAnon)
	if v.Start != 0x11000 {
		t.Fatalf("MapAnywhere landed at %#x, want 0x11000 (first gap)", v.Start)
	}
	v2 := as.MapAnywhere(0x10000, 0x4000, "d", PermRead, ClassAnon)
	if v2.Start != 0x13000 {
		t.Fatalf("large MapAnywhere landed at %#x, want 0x13000", v2.Start)
	}
}

func TestUnmap(t *testing.T) {
	as := newAS()
	v := mustMap(t, as, 0x1000, 0x1000, "a")
	if err := as.Unmap(v); err != nil {
		t.Fatal(err)
	}
	if as.Find(0x1000) != nil {
		t.Fatal("unmapped region still found")
	}
	if err := as.Unmap(v); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestSliceAndBytes(t *testing.T) {
	as := newAS()
	v := mustMap(t, as, 0x1000, 0x2000, "buf")
	s := v.Slice(16, 4)
	s[0] = 0xAB
	if v.Bytes()[16] != 0xAB {
		t.Fatal("slice views not aliased")
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	as := newAS()
	v := mustMap(t, as, 0x1000, 0x1000, "buf")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	v.Slice(PageSize-1, 2)
}

func TestCloneSharingSemantics(t *testing.T) {
	as := newAS()
	ro := mustMapPerm(t, as, 0x1000, 0x1000, "libc.so", PermRead|PermExec)
	rw := mustMap(t, as, 0x3000, 0x1000, "private")
	sh := mustMap(t, as, 0x5000, 0x1000, "ashmem")
	sh.Shared = true
	rw.Bytes()[0] = 1
	sh.Bytes()[0] = 2
	ro.Bytes()[0] = 3

	child := as.Clone()
	crw := child.FindByName("private")
	csh := child.FindByName("ashmem")
	cro := child.FindByName("libc.so")

	crw.Bytes()[0] = 99
	if rw.Bytes()[0] != 1 {
		t.Fatal("private mapping leaked between parent and child")
	}
	csh.Bytes()[0] = 88
	if sh.Bytes()[0] != 88 {
		t.Fatal("shared mapping not shared")
	}
	if cro.Bytes()[0] != 3 {
		t.Fatal("read-only mapping lost contents")
	}
}

// TestClonePrefixCopyPreservesContents pins the touched-prefix fork copy:
// Clone copies a private store only up to its high-water mark (everything
// beyond is guaranteed zero), and the result must still behave exactly like a
// full deep copy — contents preserved, nothing shared.
func TestClonePrefixCopyPreservesContents(t *testing.T) {
	as := newAS()
	rw := mustMap(t, as, 0x100000, 1<<20, "dalvik-heap")
	// Touch only a small prefix; the rest of the arena stays virgin zero.
	copy(rw.Slice(16, 4), []byte{1, 2, 3, 4})

	child := as.Clone()
	crw := child.FindByName("dalvik-heap")
	if got := crw.Slice(16, 4); got[0] != 1 || got[3] != 4 {
		t.Fatalf("touched prefix not copied: %v", got)
	}
	// Bytes beyond the parent's touched mark must read as zero in the child...
	if got := crw.Slice(1<<19, 8); got[0] != 0 || got[7] != 0 {
		t.Fatalf("untouched tail not zero in child: %v", got)
	}
	// ...and stay private: writes past the old mark must not cross the fork.
	crw.Slice(1<<19, 1)[0] = 7
	if rw.Slice(1<<19, 1)[0] != 0 {
		t.Fatal("child write past the touched mark leaked into the parent")
	}
	rw.Slice(1<<18, 1)[0] = 9
	if crw.Slice(1<<18, 1)[0] != 0 {
		t.Fatal("parent write after fork leaked into the child")
	}
}

func TestMapShared(t *testing.T) {
	c := stats.NewCollector()
	a, b := NewAddressSpace(c), NewAddressSpace(c)
	src := &VMA{}
	la := NewLayout(a, 0x1000, 0x1000)
	_ = la
	srcV, err := a.Map(0x50000000, 0x1000, "gralloc-buffer", PermRead|PermWrite, ClassShared)
	if err != nil {
		t.Fatal(err)
	}
	srcV.Bytes()[7] = 0x5A
	dstV := b.MapShared(0x40000000, srcV, PermRead|PermWrite)
	if dstV.Bytes()[7] != 0x5A {
		t.Fatal("MapShared does not alias source bytes")
	}
	dstV.Bytes()[7] = 0x66
	if srcV.Bytes()[7] != 0x66 {
		t.Fatal("MapShared writes not visible to source")
	}
	if dstV.Name != "gralloc-buffer" {
		t.Fatalf("shared name = %q", dstV.Name)
	}
	_ = src
}

func TestLayoutSkeleton(t *testing.T) {
	as := newAS()
	l := NewLayout(as, 0x20000, 0x40000)
	for _, tc := range []struct {
		v    *VMA
		name string
	}{
		{l.Text, RegionAppBinary},
		{l.Heap, RegionHeap},
		{l.Stack, RegionStack},
		{l.Kernel, RegionKernel},
	} {
		if tc.v == nil || tc.v.Name != tc.name {
			t.Fatalf("layout region %q missing or misnamed: %v", tc.name, tc.v)
		}
	}
	if as.Find(TextBase) != l.Text {
		t.Fatal("text not at TextBase")
	}
	if as.Find(KernelVA) != l.Kernel {
		t.Fatal("kernel not at KernelVA")
	}
}

func TestMapLibraryBumpsPointer(t *testing.T) {
	as := newAS()
	l := NewLayout(as, 0x1000, 0x1000)
	t1, d1 := l.MapLibrary(as, "libdvm.so", 0x80000, 0x10000)
	t2, _ := l.MapLibrary(as, "libskia.so", 0x100000, 0)
	if d1 == nil || d1.Name != "libdvm.so (data)" {
		t.Fatalf("data segment = %v", d1)
	}
	if t2.Start < d1.End || t1.End > d1.Start {
		t.Fatal("library layout not monotonic")
	}
}

func TestMapAnonName(t *testing.T) {
	as := newAS()
	l := NewLayout(as, 0x1000, 0x1000)
	v := l.MapAnon(as, ThreadStackSize)
	if v.Name != RegionAnonymous {
		t.Fatalf("anon mapping named %q", v.Name)
	}
}

func TestPermString(t *testing.T) {
	if (PermRead | PermWrite).String() != "rw-" {
		t.Fatalf("perm string %q", (PermRead | PermWrite).String())
	}
	if (PermRead | PermExec).String() != "r-x" {
		t.Fatalf("perm string %q", (PermRead | PermExec).String())
	}
}

// Property: after any sequence of non-overlapping maps, every address inside
// a VMA resolves to it and VMAs stay sorted and disjoint.
func TestAddressSpaceInvariantProperty(t *testing.T) {
	f := func(starts []uint16) bool {
		as := newAS()
		var mapped []*VMA
		for _, s := range starts {
			start := Addr(s) * PageSize * 4
			v, err := as.Map(start, 2*PageSize, "r", PermRead, ClassAnon)
			if err == nil {
				mapped = append(mapped, v)
			}
		}
		// Sorted & disjoint.
		vs := as.VMAs()
		for i := 1; i < len(vs); i++ {
			if vs[i-1].End > vs[i].Start {
				return false
			}
		}
		// Lookup consistency.
		for _, v := range mapped {
			if as.Find(v.Start) != v || as.Find(v.End-1) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupCacheInvalidatedOnMutation pins the cache-coherence fix: the
// stale path is cache-a-VMA, unmap it, remap an overlapping range — the old
// code only cleared the cache when the unmapped VMA was the cached one at
// unmap time, and a later mutation covering the cached range could otherwise
// leave Find answering from a freed VMA. Every mutation (Map, Unmap) now
// invalidates any cache entry its range covers.
func TestLookupCacheInvalidatedOnMutation(t *testing.T) {
	as := newAS()
	a := mustMap(t, as, 0x1000, 0x1000, "a")
	if as.Find(0x1800) != a {
		t.Fatal("warm-up Find missed")
	}
	if err := as.Unmap(a); err != nil {
		t.Fatal(err)
	}
	if as.last != nil {
		t.Fatal("Unmap left the lookup cache pointing at a freed VMA")
	}
	// Overlapping remap of the freed range must resolve to the new VMA.
	b := mustMap(t, as, 0x0800, 0x2000, "b")
	if got := as.Find(0x1800); got != b {
		t.Fatalf("Find after overlapping remap = %v, want %v", got, b)
	}
}

// TestResidentAccounting pins the physical-page bookkeeping the kernel's
// pressure model is fed by: writable mappings count, read-only and kernel
// mappings do not, and Unmap/Discard/Commit move the counters.
func TestResidentAccounting(t *testing.T) {
	as := newAS()
	var observed int64
	as.OnResident = func(d int64) { observed += d }

	rw := mustMap(t, as, 0x1000, 8*PageSize, "rw")
	if got := as.ResidentPages(); got != 8 {
		t.Fatalf("resident after rw map = %d pages, want 8", got)
	}
	if rw.ResidentBytes() != 8*PageSize {
		t.Fatalf("VMA resident = %d", rw.ResidentBytes())
	}
	// Read-only file pages are evictable cache: not counted.
	mustMapPerm(t, as, 0x20000, 4*PageSize, "ro", PermRead)
	if got := as.ResidentPages(); got != 8 {
		t.Fatalf("resident after ro map = %d pages, want 8", got)
	}
	// The kernel direct map is shared physical memory: not counted.
	if _, err := as.Map(KernelVA, KernelLen, RegionKernel, PermRead|PermWrite|PermExec, ClassKernel); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentPages(); got != 8 {
		t.Fatalf("resident after kernel map = %d pages, want 8", got)
	}
	if got := as.ResidentPagesByClass(ClassAnon); got != 8 {
		t.Fatalf("anon class pages = %d, want 8", got)
	}

	// Discard releases pages without unmapping; Commit brings them back,
	// capped at the mapping size.
	if released := as.Discard(rw, 3*PageSize); released != 3*PageSize {
		t.Fatalf("Discard released %d", released)
	}
	if got := as.ResidentPages(); got != 5 {
		t.Fatalf("resident after discard = %d pages, want 5", got)
	}
	if committed := as.Commit(rw, 100*PageSize); committed != 3*PageSize {
		t.Fatalf("Commit added %d, want cap at %d", committed, 3*PageSize)
	}
	if got := as.ResidentPages(); got != 8 {
		t.Fatalf("resident after commit = %d pages, want 8", got)
	}

	if err := as.Unmap(rw); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentPages(); got != 0 {
		t.Fatalf("resident after unmap = %d pages, want 0", got)
	}
	if observed != 0 {
		t.Fatalf("observer saw net %d pages, want 0", observed)
	}
}

// TestCloneCarriesResidentAccounting: a forked child reports the same
// countable resident set as its parent.
func TestCloneCarriesResidentAccounting(t *testing.T) {
	as := newAS()
	NewLayout(as, 0x10000, 0x10000)
	mustMap(t, as, 0x40000000, 16*PageSize, "anon")
	child := as.Clone()
	if child.ResidentPages() != as.ResidentPages() {
		t.Fatalf("clone resident = %d, parent = %d", child.ResidentPages(), as.ResidentPages())
	}
	if child.ResidentPagesByClass(ClassAnon) != as.ResidentPagesByClass(ClassAnon) {
		t.Fatal("clone per-class accounting diverged")
	}
}

func mustMap(t *testing.T, as *AddressSpace, start Addr, size uint64, name string) *VMA {
	t.Helper()
	return mustMapPerm(t, as, start, size, name, PermRead|PermWrite)
}

func mustMapPerm(t *testing.T, as *AddressSpace, start Addr, size uint64, name string, p Perm) *VMA {
	t.Helper()
	v, err := as.Map(start, size, name, p, ClassAnon)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// refOverlapIndexExcept is the linear overlap scan the address space used
// before its lookups became binary searches: the lowest index of a VMA other
// than skip that overlaps [start, end), or -1.
func refOverlapIndexExcept(vmas []*VMA, start, end Addr, skip *VMA) int {
	for i, v := range vmas {
		if v != skip && v.Start < end && start < v.End {
			return i
		}
	}
	return -1
}

// refFindGap is the restart loop findGap replaced: after every collision,
// rescan from the lowest VMA.
func refFindGap(vmas []*VMA, hint Addr, size uint64) Addr {
	start := roundUp(hint)
	for {
		i := refOverlapIndexExcept(vmas, start, start+size, nil)
		if i < 0 {
			return start
		}
		start = vmas[i].End
	}
}

// TestAddressSpaceMatchesLinearReference drives random Map, MapAnywhere and
// Unmap sequences on a NewLayout space and checks every answer against the
// linear reference scans: the lowest gap at or above the hint and the same
// overlap error. After every op the map must be sorted and disjoint and the
// resident counters must equal the sum over countable VMAs.
func TestAddressSpaceMatchesLinearReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		as := newAS()
		l := NewLayout(as, 0x10000, 0x10000)
		layout := map[*VMA]bool{l.Text: true, l.Heap: true, l.Stack: true, l.Kernel: true}
		lo, hi := HeapBase-64*PageSize, HeapBase+512*PageSize
		randAddr := func(from, to Addr) Addr {
			if to <= from {
				return from
			}
			return from + Addr(rng.Intn(int(to-from)))
		}
		randSize := func() uint64 {
			if rng.Bool(0.3) {
				return uint64(rng.Range(1, 8*PageSize)) // rounded up by the space
			}
			return uint64(rng.Range(1, 8)) * PageSize
		}
		// gaps lists the holes between consecutive mappings.
		gaps := func() (g [][2]Addr) {
			vs := as.VMAs()
			for i := 1; i < len(vs); i++ {
				if vs[i-1].End < vs[i].Start {
					g = append(g, [2]Addr{vs[i-1].End, vs[i].Start})
				}
			}
			return g
		}

		for op := 0; op < 1500; op++ {
			vs := as.VMAs()
			switch r := rng.Intn(100); {
			case r < 35: // MapAnywhere
				var hint Addr
				size := randSize()
				switch rng.Intn(5) {
				case 0: // below every mapping
					hint = randAddr(0, vs[0].Start)
				case 1: // inside a mapping
					v := vs[rng.Intn(len(vs))]
					hint = randAddr(v.Start, v.End)
				case 2: // between mappings
					if g := gaps(); len(g) > 0 {
						h := g[rng.Intn(len(g))]
						hint = randAddr(h[0], h[1])
					}
				case 3: // above every mapping
					hint = vs[len(vs)-1].End + Addr(rng.Intn(16))*PageSize
				case 4: // a gap's exact size, or one page too large
					if g := gaps(); len(g) > 0 {
						h := g[rng.Intn(len(g))]
						hint = randAddr(h[0]-min(h[0], 64*PageSize), h[0]+1)
						size = h[1] - h[0]
						if rng.Bool(0.5) {
							size += PageSize
						}
					}
				}
				want := refFindGap(vs, hint, roundUp(size))
				v := as.MapAnywhere(hint, size, "anywhere", PermRead|PermWrite, ClassAnon)
				if v.Start != want {
					t.Fatalf("seed %d op %d: MapAnywhere(%#x, %#x) at %#x, reference %#x", seed, op, hint, size, v.Start, want)
				}
			case r < 60: // Map at a fixed address
				start := randAddr(lo, hi) &^ (PageSize - 1)
				size := randSize()
				end := start + roundUp(size)
				ref := refOverlapIndexExcept(vs, start, end, nil)
				var wantErr string
				if ref >= 0 {
					wantErr = fmt.Sprintf("mem: mapping %q [%#x,%#x) overlaps %s", "fixed", start, end, vs[ref])
				}
				_, err := as.Map(start, size, "fixed", PermRead|PermWrite, ClassData)
				switch {
				case ref < 0 && err != nil:
					t.Fatalf("seed %d op %d: Map [%#x,%#x) failed with no reference overlap: %v", seed, op, start, end, err)
				case ref >= 0 && (err == nil || err.Error() != wantErr):
					t.Fatalf("seed %d op %d: Map [%#x,%#x) error %v, want %q", seed, op, start, end, err, wantErr)
				}
			default: // Unmap
				var cands []*VMA
				for _, v := range vs {
					if !layout[v] {
						cands = append(cands, v)
					}
				}
				if len(cands) == 0 {
					continue
				}
				v := cands[rng.Intn(len(cands))]
				if err := as.Unmap(&VMA{Start: v.Start, End: v.End, Name: v.Name}); err == nil {
					t.Fatalf("seed %d op %d: Unmap of a foreign VMA at %#x succeeded", seed, op, v.Start)
				}
				if err := as.Unmap(v); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if as.Find(v.Start) == v {
					t.Fatalf("seed %d op %d: unmapped %s still found", seed, op, v)
				}
			}
			checkAddressSpace(t, as)
		}
	}
}

// checkAddressSpace asserts the map is sorted and disjoint and that the
// resident counters equal the sum over countable VMAs.
func checkAddressSpace(t *testing.T, as *AddressSpace) {
	t.Helper()
	var total uint64
	var byClass [ClassRuntime + 1]uint64
	vs := as.VMAs()
	for i, v := range vs {
		if v.Start >= v.End || (i > 0 && vs[i-1].End > v.Start) {
			t.Fatalf("map not sorted and disjoint at %d: %v", i, vs)
		}
		if countable(v) {
			total += v.resident / PageSize
			byClass[v.Class] += v.resident / PageSize
		}
	}
	if got := as.ResidentPages(); got != total {
		t.Fatalf("ResidentPages = %d, sum over VMAs %d", got, total)
	}
	for c := range byClass {
		if got := as.ResidentPagesByClass(Class(c)); got != byClass[c] {
			t.Fatalf("ResidentPagesByClass(%d) = %d, sum over VMAs %d", c, got, byClass[c])
		}
	}
}
