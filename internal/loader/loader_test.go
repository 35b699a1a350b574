package loader

import (
	"testing"

	"agave/internal/mem"
	"agave/internal/stats"
)

func newSpace() (*mem.AddressSpace, *mem.Layout) {
	as := mem.NewAddressSpace(stats.NewCollector())
	return as, mem.NewLayout(as, 64*KB, 256*KB)
}

func TestCatalogHasPaperLibraries(t *testing.T) {
	for _, name := range []string{
		"libdvm.so", "libskia.so", "libstagefright.so", "libc.so",
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("catalog missing %s (named in the paper's Figure 1)", name)
		}
	}
}

func TestCatalogSizeSupportsRegionCensus(t *testing.T) {
	// The paper's suite-wide census needs >65 instruction regions; the
	// catalog plus runtime/app regions must be able to supply that.
	if len(Catalog) < 55 {
		t.Fatalf("catalog has %d libraries, too few for the region census", len(Catalog))
	}
	if len(FrameworkDex) < 4 {
		t.Fatalf("framework dex set too small: %d", len(FrameworkDex))
	}
}

func TestLoadMapsEverything(t *testing.T) {
	as, layout := newSpace()
	lm := Load(as, layout, BaseSet())
	if len(lm.vmas) != len(BaseSet()) {
		t.Fatalf("mapped %d, want %d", len(lm.vmas), len(BaseSet()))
	}
	v := lm.VMA("libdvm.so")
	if v == nil || v.Name != "libdvm.so" {
		t.Fatal("libdvm.so not mapped")
	}
	if as.Find(v.Start) != v {
		t.Fatal("mapping not registered in address space")
	}
}

func TestLoadUnknownGetsDefaultFootprint(t *testing.T) {
	as, layout := newSpace()
	lm := Load(as, layout, []string{"libdoom.so"})
	v := lm.VMA("libdoom.so")
	if v.Size() == 0 {
		t.Fatal("unknown library mapped with zero size")
	}
}

func TestLoadOneIdempotent(t *testing.T) {
	as, layout := newSpace()
	lm := Load(as, layout, []string{"libc.so"})
	a := lm.loadOne(as, layout, "libc.so")
	b := lm.loadOne(as, layout, "libc.so")
	if a != b {
		t.Fatal("double load created two mappings")
	}
	if len(lm.vmas) != 1 {
		t.Fatalf("count = %d", len(lm.vmas))
	}
}

func TestVMAPanicsOnMissing(t *testing.T) {
	as, layout := newSpace()
	lm := Load(as, layout, []string{"libc.so"})
	defer func() {
		if recover() == nil {
			t.Fatal("VMA of unmapped library did not panic")
		}
	}()
	lm.VMA("libghost.so")
}

func TestRebindFindsInherited(t *testing.T) {
	as, layout := newSpace()
	Load(as, layout, []string{"libc.so", "libdvm.so"})
	child := as.Clone()
	lm := Rebind(child, layout, []string{"libc.so", "libdvm.so", "libvlccore.so"})
	if len(lm.vmas) != 3 {
		t.Fatalf("rebind mapped %d, want 3", len(lm.vmas))
	}
	// Inherited libraries must resolve to the child's VMAs, not be
	// remapped.
	if lm.VMA("libc.so") != child.FindByName("libc.so") {
		t.Fatal("rebind remapped an inherited library")
	}
	// The new library must actually be mapped in the child.
	if child.FindByName("libvlccore.so") == nil {
		t.Fatal("rebind did not map the new library")
	}
}

func TestNamesSorted(t *testing.T) {
	as, layout := newSpace()
	lm := Load(as, layout, []string{"libz.so", "libc.so", "libm.so"})
	var names []string
	for _, v := range lm.Libraries() {
		names = append(names, v.Name)
	}
	if len(names) != 3 || names[0] != "libc.so" || names[1] != "libm.so" || names[2] != "libz.so" {
		t.Fatalf("Libraries() in order %v", names)
	}
}

func TestSetsAreLoadable(t *testing.T) {
	for _, set := range [][]string{BaseSet(), SystemServerSet(), MediaServerSet()} {
		as, layout := newSpace()
		lm := Load(as, layout, set)
		if len(lm.vmas) != len(set) {
			t.Fatalf("set of %d mapped %d", len(set), len(lm.vmas))
		}
	}
	if len(SystemServerSet()) <= len(BaseSet()) || len(MediaServerSet()) <= len(BaseSet()) {
		t.Fatal("specialized sets should extend the base set")
	}
}
