package stats

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndTotals(t *testing.T) {
	c := NewCollector()
	p := c.Proc("benchmark")
	th := c.Thread("main")
	r := c.Region("libdvm.so")
	c.Add(p, th, r, IFetch, 60)
	// AddRow through the pair's row lands in the same cell as Add.
	c.AddRow(c.Row(p, th), r, IFetch, 40)
	c.Add(p, th, r, DataRead, 30)
	c.Add(p, th, r, DataWrite, 20)
	if got := c.Total(); got != 150 {
		t.Fatalf("Total = %d, want 150", got)
	}
	if got := c.Total(IFetch); got != 100 {
		t.Fatalf("Total(IFetch) = %d, want 100", got)
	}
	if got := c.Total(DataKinds...); got != 50 {
		t.Fatalf("Total(data) = %d, want 50", got)
	}
	if got := c.Cells(); got != 3 {
		t.Fatalf("Cells = %d, want 3: Add and AddRow split a cell", got)
	}
}

func TestAddZeroIsNoop(t *testing.T) {
	c := NewCollector()
	c.Add(c.Proc("p"), c.Thread("t"), c.Region("r"), IFetch, 0)
	if c.Total() != 0 || c.RegionCount() != 0 {
		t.Fatal("zero add left residue")
	}
}

func TestInterningStable(t *testing.T) {
	c := NewCollector()
	a := c.Region("dalvik-heap")
	b := c.Region("dalvik-heap")
	if a != b {
		t.Fatal("same name interned to different IDs")
	}
	if c.RegionName(a) != "dalvik-heap" {
		t.Fatalf("round trip gave %q", c.RegionName(a))
	}
}

func TestFolds(t *testing.T) {
	c := NewCollector()
	p1, p2 := c.Proc("benchmark"), c.Proc("system_server")
	t1, t2 := c.Thread("main"), c.Thread("SurfaceFlinger")
	r1, r2 := c.Region("libdvm.so"), c.Region("fb0 (frame buffer)")
	c.Add(p1, t1, r1, IFetch, 70)
	c.Add(p2, t2, r2, DataWrite, 30)

	byR := c.ByRegion()
	if byR["libdvm.so"] != 70 || byR["fb0 (frame buffer)"] != 30 {
		t.Fatalf("ByRegion = %v", byR)
	}
	byP := c.ByProcess(IFetch)
	if byP["benchmark"] != 70 || byP["system_server"] != 0 {
		t.Fatalf("ByProcess(IFetch) = %v", byP)
	}
	byT := c.ByThread(DataWrite)
	if byT["SurfaceFlinger"] != 30 {
		t.Fatalf("ByThread = %v", byT)
	}
}

func TestRegionAndProcessCounts(t *testing.T) {
	c := NewCollector()
	p := c.Proc("p")
	th := c.Thread("t")
	c.Add(p, th, c.Region("a"), IFetch, 1)
	c.Add(p, th, c.Region("b"), DataRead, 1)
	c.Add(p, th, c.Region("c"), DataWrite, 1)
	if got := c.RegionCount(IFetch); got != 1 {
		t.Fatalf("RegionCount(IFetch) = %d, want 1", got)
	}
	if got := c.RegionCount(DataKinds...); got != 2 {
		t.Fatalf("RegionCount(data) = %d, want 2", got)
	}
	if got := c.RegionCount(); got != 3 {
		t.Fatalf("RegionCount() = %d, want 3", got)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector()
	r := c.Region("r")
	c.Add(c.Proc("p"), c.Thread("t"), r, IFetch, 5)
	// A row cached during warm-up, as a thread's Exec caches its own, must
	// still count into its pair after the Reset that starts measurement.
	row := c.Row(c.Proc("q"), c.Thread("u"))
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("Reset left counts")
	}
	if c.Region("r") != r {
		t.Fatal("Reset dropped interned names")
	}
	c.AddRow(row, r, DataRead, 3)
	if p, th := c.ByProcess()["q"], c.ByThread()["u"]; p != 3 || th != 3 {
		t.Fatalf("row cached before Reset counted q=%d u=%d, want 3 and 3", p, th)
	}
}

func TestBreakdownSortingAndShares(t *testing.T) {
	b := NewBreakdown(map[string]uint64{"a": 10, "b": 30, "c": 60})
	if b.Total != 100 {
		t.Fatalf("Total = %d", b.Total)
	}
	if b.Rows[0].Name != "c" || b.Rows[1].Name != "b" || b.Rows[2].Name != "a" {
		t.Fatalf("order %v", b.Rows)
	}
	if b.Share("c") != 0.6 || b.Share("missing") != 0 {
		t.Fatalf("shares wrong: %v", b.Rows)
	}
	if b.Count("b") != 30 {
		t.Fatal("Count wrong")
	}
}

func TestBreakdownTieBreakByName(t *testing.T) {
	b := NewBreakdown(map[string]uint64{"zeta": 5, "alpha": 5})
	if b.Rows[0].Name != "alpha" {
		t.Fatalf("tie not broken by name: %v", b.Rows)
	}
}

func TestBreakdownFold(t *testing.T) {
	b := NewBreakdown(map[string]uint64{
		"mspace": 50, "libdvm.so": 30, "tiny1": 5, "tiny2": 5, "tiny3": 10,
	})
	f := b.Fold([]string{"mspace", "libdvm.so", "absent"})
	if len(f.Rows) != 4 {
		t.Fatalf("folded rows = %d, want 4", len(f.Rows))
	}
	if f.Rows[0].Name != "mspace" || f.Rows[0].Count != 50 {
		t.Fatalf("row0 = %+v", f.Rows[0])
	}
	if f.Rows[2].Name != "absent" || f.Rows[2].Count != 0 {
		t.Fatalf("absent legend entry mishandled: %+v", f.Rows[2])
	}
	last := f.Rows[3]
	if !strings.HasPrefix(last.Name, "other (") || last.Count != 20 {
		t.Fatalf("other row = %+v", last)
	}
	if !strings.Contains(last.Name, "3 items") {
		t.Fatalf("other row should count 3 items: %q", last.Name)
	}
	// Folding preserves the total.
	var sum uint64
	for _, r := range f.Rows {
		sum += r.Count
	}
	if sum != b.Total {
		t.Fatalf("fold changed total: %d != %d", sum, b.Total)
	}
}

func TestBreakdownTopN(t *testing.T) {
	b := NewBreakdown(map[string]uint64{"a": 1, "b": 2, "c": 3})
	if got := len(b.TopN(2)); got != 2 {
		t.Fatalf("TopN(2) len = %d", got)
	}
	if got := len(b.TopN(99)); got != 3 {
		t.Fatalf("TopN(99) len = %d", got)
	}
}

// Property: for any set of adds, Total equals the sum over every fold.
func TestFoldSumsMatchTotalProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		c := NewCollector()
		procs := []string{"p1", "p2", "p3"}
		regions := []string{"r1", "r2", "r3", "r4"}
		var want uint64
		for i, n := range counts {
			p := c.Proc(procs[i%len(procs)])
			th := c.Thread("t")
			r := c.Region(regions[i%len(regions)])
			c.Add(p, th, r, Kind(i%3), uint64(n))
			want += uint64(n)
		}
		var byR, byP uint64
		for _, v := range c.ByRegion() {
			byR += v
		}
		for _, v := range c.ByProcess() {
			byP += v
		}
		return byR == want && byP == want && c.Total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if IFetch.String() != "ifetch" || DataRead.String() != "dread" || DataWrite.String() != "dwrite" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should print its number")
	}
}

func TestEntriesCanonicalAndInterningInvariant(t *testing.T) {
	// Two collectors fed the same counts in different orders (so their
	// interned ID spaces differ) must produce identical canonical entries
	// and fingerprints.
	type add struct {
		proc, thread, region string
		kind                 Kind
		n                    uint64
	}
	adds := []add{
		{"system_server", "Binder", "libdvm.so", IFetch, 40},
		{"benchmark", "main", "mspace", IFetch, 100},
		{"benchmark", "GC", "dalvik-heap", DataWrite, 7},
		{"mediaserver", "AudioTrackThread", "heap", DataRead, 12},
	}
	feed := func(c *Collector, order []int) {
		for _, i := range order {
			a := adds[i]
			c.Add(c.Proc(a.proc), c.Thread(a.thread), c.Region(a.region), a.kind, a.n)
		}
	}
	a, b := NewCollector(), NewCollector()
	feed(a, []int{0, 1, 2, 3})
	feed(b, []int{3, 2, 1, 0})
	ea, eb := a.Entries(), b.Entries()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("entries depend on interning order:\n%v\n%v", ea, eb)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints depend on interning order")
	}
	// Canonical order: proc, thread, region, kind ascending.
	if !sort.SliceIsSorted(ea, func(i, j int) bool {
		x, y := ea[i], ea[j]
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		if x.Thread != y.Thread {
			return x.Thread < y.Thread
		}
		if x.Region != y.Region {
			return x.Region < y.Region
		}
		return x.Kind < y.Kind
	}) {
		t.Fatalf("entries not canonically sorted: %v", ea)
	}
	// A count change must change the fingerprint.
	before := a.Fingerprint()
	a.Add(a.Proc("benchmark"), a.Thread("main"), a.Region("mspace"), IFetch, 1)
	if a.Fingerprint() == before {
		t.Fatal("fingerprint blind to count changes")
	}
}

func TestFingerprintEmptyAndZeroSuppressed(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("empty collectors disagree")
	}
	// Interned-but-unused names must not affect entries or fingerprints.
	b.Proc("ghost")
	b.Thread("ghost")
	b.Region("ghost")
	if len(b.Entries()) != 0 || a.Fingerprint() != b.Fingerprint() {
		t.Fatal("interned-but-unused names leak into the canonical form")
	}
}

func TestAggMeanMinMax(t *testing.T) {
	var a Agg
	if a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 || a.N != 0 {
		t.Fatal("zero Agg not empty")
	}
	for _, v := range []float64{4, -2, 10, 0} {
		a.Observe(v)
	}
	if a.N != 4 || a.Mean() != 3 || a.Min() != -2 || a.Max() != 10 {
		t.Fatalf("agg = %+v mean %.1f min %.1f max %.1f", a, a.Mean(), a.Min(), a.Max())
	}
	// Single negative sample: min == max == mean.
	var one Agg
	one.Observe(-5)
	if one.Min() != -5 || one.Max() != -5 || one.Mean() != -5 {
		t.Fatalf("single-sample agg wrong: %+v", one)
	}
}

func TestNameLookupsDoNotAllocate(t *testing.T) {
	c := NewCollector()
	p := c.Proc("system_server")
	th := c.Thread("Binder Thread")
	r := c.Region("libdvm.so")
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		sink = c.ProcName(p)
		sink = c.ThreadName(th)
		sink = c.RegionName(r)
		// Out-of-range ids take the preformatted fallback, not Sprintf.
		sink = c.ProcName(ProcID(9999))
		sink = c.ThreadName(ThreadID(-1))
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("name lookups allocated %.1f per run, want 0", allocs)
	}
	if got := c.ProcName(ProcID(9999)); got != unknownName {
		t.Fatalf("out-of-range lookup = %q, want %q", got, unknownName)
	}
}

func TestAddRowIntoExistingCellDoesNotAllocate(t *testing.T) {
	c := NewCollector()
	row := c.Row(c.Proc("system_server"), c.Thread("SurfaceFlinger"))
	r := c.Region("mspace")
	c.AddRow(row, r, IFetch, 1)
	if allocs := testing.AllocsPerRun(100, func() { c.AddRow(row, r, IFetch, 1) }); allocs != 0 {
		t.Fatalf("AddRow into an existing cell allocated %.1f per run, want 0", allocs)
	}
}

func TestAggMerge(t *testing.T) {
	// Merging per-shard partials in order reproduces the serial fold bit for
	// bit: same N, same Sum (not just approximately), same extrema.
	samples := []float64{0.1, 0.2, 0.3, 4, -2, 1e-9, 7.5, 0.7}
	var serial Agg
	for _, v := range samples {
		serial.Observe(v)
	}
	var left, right Agg
	for _, v := range samples[:3] {
		left.Observe(v)
	}
	for _, v := range samples[3:] {
		right.Observe(v)
	}
	merged := left
	merged.Merge(right)
	if merged != serial {
		t.Fatalf("merged = %+v, serial = %+v", merged, serial)
	}
	// Merging into or from an empty aggregate is the identity.
	var empty Agg
	got := serial
	got.Merge(empty)
	if got != serial {
		t.Fatalf("merge with empty changed agg: %+v", got)
	}
	got = empty
	got.Merge(serial)
	if got != serial {
		t.Fatalf("merge into empty = %+v, want %+v", got, serial)
	}
}

// TestCollectorMatchesMapReference drives a seeded random mix of Row, AddRow
// and Reset into a Collector and into a plain map keyed by (row, region,
// kind), and compares every read before and after each Reset and at the
// end. Regions are interned as the mix first names them, so rows' slot
// tables grow throughout, and the cells a Reset zeroes must stay invisible
// to every read. No name table is interned in name order, and some names
// are byte prefixes of others, so the canonical order must come from the
// names themselves.
func TestCollectorMatchesMapReference(t *testing.T) {
	type key struct {
		proc, thread, region string
		kind                 Kind
	}
	rng := rand.New(rand.NewPCG(7, 32))
	procs := []string{"zygote", "system_server", "com.android.music:remote", "system",
		"mediaserver", "com.android.music", "swapper"}
	threads := []string{"main", "Binder Thread", "GC", "Binder", "Compiler", "GC Daemon"}
	// The mix names low indices first, so regions intern in roughly
	// descending name order.
	regions := make([]string, 60)
	for i := range regions {
		regions[i] = fmt.Sprintf("lib%02d.so", len(regions)-1-i)
	}
	copy(regions[1:], []string{"mspace-ab", "mspace-a", "mspace", "ms"})
	c := NewCollector()
	for _, p := range procs {
		c.Proc(p)
	}
	for _, th := range threads {
		c.Thread(th)
	}
	ref := map[key]uint64{}
	type rowName struct{ proc, thread string }
	var rows []RowID
	var names []rowName

	kindSets := [][]Kind{nil, {IFetch}, {DataRead}, {DataWrite}, DataKinds}
	compare := func(when string) {
		t.Helper()
		var want []Entry
		for k, n := range ref {
			if n != 0 {
				want = append(want, Entry{k.proc, k.thread, k.region, k.kind, n})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Proc != b.Proc {
				return a.Proc < b.Proc
			}
			if a.Thread != b.Thread {
				return a.Thread < b.Thread
			}
			if a.Region != b.Region {
				return a.Region < b.Region
			}
			return a.Kind < b.Kind
		})
		if got := c.Entries(); !reflect.DeepEqual(got, append([]Entry{}, want...)) {
			t.Fatalf("%s: Entries =\n%v\nwant\n%v", when, got, want)
		}
		// FNV-1a over the sorted list: each name then 0xff, then kind and
		// count as 8 little-endian bytes each.
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		for _, e := range want {
			for _, name := range []string{e.Proc, e.Thread, e.Region} {
				for _, b := range append([]byte(name), 0xff) {
					h = (h ^ uint64(b)) * prime
				}
			}
			for _, v := range []uint64{uint64(e.Kind), e.Count} {
				for i := 0; i < 8; i++ {
					h = (h ^ (v >> (8 * i) & 0xff)) * prime
				}
			}
		}
		if got := c.Fingerprint(); got != h {
			t.Fatalf("%s: Fingerprint = %016x, want %016x", when, got, h)
		}
		// A fresh collector fed only the non-zero counts, in reverse, has
		// no zero cells and another interning order.
		fresh := NewCollector()
		for i := len(want) - 1; i >= 0; i-- {
			e := want[i]
			fresh.Add(fresh.Proc(e.Proc), fresh.Thread(e.Thread), fresh.Region(e.Region), e.Kind, e.Count)
		}
		if c.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("%s: Fingerprint differs from a collector holding the same counts", when)
		}
		if got := c.Cells(); got != len(want) {
			t.Fatalf("%s: Cells = %d, want %d", when, got, len(want))
		}
		for _, kinds := range kindSets {
			sel := selectKinds(kinds)
			var total uint64
			byRegion, byProc, byThread := map[string]uint64{}, map[string]uint64{}, map[string]uint64{}
			for _, e := range want {
				if sel[e.Kind] {
					total += e.Count
					byRegion[e.Region] += e.Count
					byProc[e.Proc] += e.Count
					byThread[e.Thread] += e.Count
				}
			}
			if got := c.Total(kinds...); got != total {
				t.Fatalf("%s: Total(%v) = %d, want %d", when, kinds, got, total)
			}
			for _, f := range []struct {
				name string
				got  map[string]uint64
				want map[string]uint64
			}{
				{"ByRegion", c.ByRegion(kinds...), byRegion},
				{"ByProcess", c.ByProcess(kinds...), byProc},
				{"ByThread", c.ByThread(kinds...), byThread},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s: %s(%v) = %v, want %v", when, f.name, kinds, f.got, f.want)
				}
			}
			if got := c.RegionCount(kinds...); got != len(byRegion) {
				t.Fatalf("%s: RegionCount(%v) = %d, want %d", when, kinds, got, len(byRegion))
			}
		}
	}

	const ops = 20_000
	resets := 0
	for op := 0; op < ops; op++ {
		switch x := rng.IntN(1000); {
		case x == 0:
			compare(fmt.Sprintf("before Reset %d", resets+1))
			c.Reset()
			for k := range ref {
				ref[k] = 0
			}
			resets++
			compare(fmt.Sprintf("after Reset %d", resets))
		case x < 20 || len(rows) == 0:
			n := rowName{procs[rng.IntN(len(procs))], threads[rng.IntN(len(threads))]}
			rows = append(rows, c.Row(c.Proc(n.proc), c.Thread(n.thread)))
			names = append(names, n)
		default:
			i := rng.IntN(len(rows))
			// Early ops name low regions only, so later ones keep interning
			// regions past existing rows' slot tables.
			region := regions[rng.IntN(1+op*len(regions)/ops)]
			kind := Kind(rng.IntN(int(numKinds)))
			n := uint64(rng.IntN(5))
			c.AddRow(rows[i], c.Region(region), kind, n)
			ref[key{names[i].proc, names[i].thread, region, kind}] += n
		}
	}
	if resets == 0 {
		t.Fatal("the mix never reset the collector")
	}
	compare("at the end")
}
