// Package stats implements the reference-accounting engine of the Agave
// reproduction. It plays the role of the gem5/kernel modifications described
// in the paper: every instruction fetch and data reference in the simulation
// is attributed to a (process, thread, virtual-memory region) triple, and the
// figures and tables of the evaluation are folds over the resulting counter
// matrix.
//
// Names are interned to small integer IDs, and each (process, thread group)
// pair to a row whose region-indexed slot table finds its counters, so the
// hot accounting path is two slice indexes. Thread names are registered by
// *group* name (for example, all "AsyncTask #N" pool workers account as
// "AsyncTask"), matching how the paper's Table I ranks threads.
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind labels a memory access class.
type Kind uint8

// Access classes. The paper's figures use instruction reads (Fig 1, Fig 3),
// data references = reads+writes (Fig 2, Fig 4), and total memory references
// = everything (Table I).
const (
	IFetch Kind = iota
	DataRead
	DataWrite
	numKinds
)

// String returns the conventional name of the access class.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case DataRead:
		return "dread"
	case DataWrite:
		return "dwrite"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// DataKinds selects data reads and writes (the paper's "data references").
var DataKinds = []Kind{DataRead, DataWrite}

// kindSet is the access-class selector behind every fold: the classes
// given, or every class when none are.
type kindSet [numKinds]bool

func selectKinds(kinds []Kind) kindSet {
	var sel kindSet
	for _, k := range kinds {
		sel[k] = true
	}
	if len(kinds) == 0 {
		for k := range sel {
			sel[k] = true
		}
	}
	return sel
}

// ProcID identifies an interned process name.
type ProcID int32

// ThreadID identifies an interned thread group name.
type ThreadID int32

// RegionID identifies an interned VMA region name.
type RegionID int32

// RowID identifies an interned (process, thread group) pair: one row of the
// counter matrix.
type RowID int32

// interner maps names to dense int32 IDs, preserving registration order.
type interner struct {
	ids   map[string]int32
	names []string
}

func newInterner() *interner {
	return &interner{ids: make(map[string]int32)}
}

func (in *interner) get(name string) int32 {
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := int32(len(in.names))
	in.ids[name] = id
	in.names = append(in.names, name)
	return id
}

// unknownName is the out-of-range fallback of interner.name. It is a
// preformatted constant so the lookup path never allocates: name resolution
// runs inside every counter fold, and formatting an error string there would
// put fmt.Sprintf on the hot path for what is always a caller bug.
const unknownName = "<unknown id>"

func (in *interner) name(id int32) string {
	if id < 0 || int(id) >= len(in.names) {
		return unknownName
	}
	return in.names[id]
}

// Collector accumulates attributed reference counts. The zero value is not
// usable; call NewCollector.
type Collector struct {
	procs   *interner
	threads *interner
	regions *interner

	// rowIDs interns (process, thread group) pairs into rows. Rows outlive
	// Reset, so a row cached before it stays valid.
	rowIDs map[rowKey]RowID
	rows   []row

	// cells holds the counters of every (row, region) pair added to so far,
	// in first-touch order.
	cells []cell

	// slotBuf is the rest of the chunk that rows' slot tables are cut from.
	slotBuf []int32
}

type rowKey struct {
	proc   ProcID
	thread ThreadID
}

// row is one (process, thread group) pair. slot[r] is 1 + the index in
// cells of the pair's counters against region r, or 0 while it has none.
type row struct {
	key  rowKey
	slot []int32
}

// cell holds one (row, region) pair's counters, one per access class; a
// cell Reset zeroed is invisible to every read.
type cell struct {
	row    RowID
	region RegionID
	n      [numKinds]uint64
}

// slotChunk is how many slot-table entries a collector allocates at once.
const slotChunk = 4096

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		procs:   newInterner(),
		threads: newInterner(),
		regions: newInterner(),
		rowIDs:  make(map[rowKey]RowID),
	}
}

// Proc interns a process name.
func (c *Collector) Proc(name string) ProcID { return ProcID(c.procs.get(name)) }

// Thread interns a thread group name.
func (c *Collector) Thread(name string) ThreadID { return ThreadID(c.threads.get(name)) }

// Region interns a VMA region name.
func (c *Collector) Region(name string) RegionID { return RegionID(c.regions.get(name)) }

// ProcName resolves a process ID back to its name.
func (c *Collector) ProcName(id ProcID) string { return c.procs.name(int32(id)) }

// ThreadName resolves a thread ID back to its group name.
func (c *Collector) ThreadName(id ThreadID) string { return c.threads.name(int32(id)) }

// RegionName resolves a region ID back to its name.
func (c *Collector) RegionName(id RegionID) string { return c.regions.name(int32(id)) }

// Row interns the (process p, thread group t) pair. A caller that adds for
// one pair many times, as a thread's Exec does, looks its row up once and
// calls AddRow.
func (c *Collector) Row(p ProcID, t ThreadID) RowID {
	k := rowKey{p, t}
	if id, ok := c.rowIDs[k]; ok {
		return id
	}
	id := RowID(len(c.rows))
	c.rowIDs[k] = id
	c.rows = append(c.rows, row{key: k})
	return id
}

// Add records n accesses of class k issued by (proc p, thread t) against
// region r.
func (c *Collector) Add(p ProcID, t ThreadID, r RegionID, k Kind, n uint64) {
	c.AddRow(c.Row(p, t), r, k, n)
}

// AddRow is Add for a pair already interned by Row. Adding 0 changes
// nothing.
func (c *Collector) AddRow(id RowID, r RegionID, k Kind, n uint64) {
	if slot := c.rows[id].slot; int(r) < len(slot) && slot[r] != 0 {
		c.cells[slot[r]-1].n[k] += n
		return
	}
	c.addCell(id, r, k, n)
}

// addCell is AddRow's first add against region r for row id. If the row's
// slot table stops short of r, the row moves to one cut from the current
// chunk that spans every region interned so far.
func (c *Collector) addCell(id RowID, r RegionID, k Kind, n uint64) {
	if n == 0 {
		return
	}
	rw := &c.rows[id]
	if int(r) >= len(rw.slot) {
		m := max(int(r)+1, len(c.regions.names))
		if m > len(c.slotBuf) {
			c.slotBuf = make([]int32, max(m, slotChunk))
		}
		copy(c.slotBuf, rw.slot)
		rw.slot, c.slotBuf = c.slotBuf[:m:m], c.slotBuf[m:]
	}
	cl := cell{row: id, region: r}
	cl.n[k] = n
	c.cells = append(c.cells, cl)
	rw.slot[r] = int32(len(c.cells))
}

// each calls f for every non-zero counter of the given classes.
func (c *Collector) each(kinds []Kind, f func(cl *cell, k Kind, n uint64)) {
	sel := selectKinds(kinds)
	for i := range c.cells {
		cl := &c.cells[i]
		for k, n := range cl.n {
			if n != 0 && sel[k] {
				f(cl, Kind(k), n)
			}
		}
	}
}

// Total reports the number of accesses across the given classes (all classes
// when none are given).
func (c *Collector) Total(kinds ...Kind) uint64 {
	var sum uint64
	c.each(kinds, func(_ *cell, _ Kind, n uint64) { sum += n })
	return sum
}

// fold sums the counts of the given classes into a map keyed by name(cell).
func (c *Collector) fold(kinds []Kind, name func(cl *cell) string) map[string]uint64 {
	out := make(map[string]uint64)
	c.each(kinds, func(cl *cell, _ Kind, n uint64) { out[name(cl)] += n })
	return out
}

// ByRegion folds counts of the given classes by region name.
func (c *Collector) ByRegion(kinds ...Kind) map[string]uint64 {
	return c.fold(kinds, func(cl *cell) string { return c.RegionName(cl.region) })
}

// ByProcess folds counts of the given classes by process name.
func (c *Collector) ByProcess(kinds ...Kind) map[string]uint64 {
	return c.fold(kinds, func(cl *cell) string { return c.ProcName(c.rows[cl.row].key.proc) })
}

// ByThread folds counts of the given classes by thread group name.
func (c *Collector) ByThread(kinds ...Kind) map[string]uint64 {
	return c.fold(kinds, func(cl *cell) string { return c.ThreadName(c.rows[cl.row].key.thread) })
}

// RegionCount reports how many distinct regions received at least one access
// of the given classes. This backs the paper's "code regions"/"data regions"
// per-application scalar metrics. The seen table is a dense bool slice over
// the region ID space: region IDs are small and dense by construction.
func (c *Collector) RegionCount(kinds ...Kind) int {
	seen := make([]bool, len(c.regions.names))
	n := 0
	c.each(kinds, func(cl *cell, _ Kind, _ uint64) {
		if !seen[cl.region] {
			seen[cl.region] = true
			n++
		}
	})
	return n
}

// Cells reports the number of distinct non-zero (row, region, kind) counters
// currently held.
func (c *Collector) Cells() int {
	n := 0
	c.each(nil, func(*cell, Kind, uint64) { n++ })
	return n
}

// Reset zeroes every count in place and keeps interned names, rows, cells
// and slot tables, so a row cached before it stays valid and the measured
// interval adds into the cells the engine's warm-up created.
func (c *Collector) Reset() {
	for i := range c.cells {
		c.cells[i].n = [numKinds]uint64{}
	}
}

// Entry is one cell of the counter matrix in name (not ID) space.
type Entry struct {
	Proc   string
	Thread string
	Region string
	Kind   Kind
	Count  uint64
}

// ranks returns each interned name's position in byte-wise name order,
// indexed by ID, and the IDs in that order. Interned names are distinct, so
// the order has no ties.
func (in *interner) ranks() (rank, byRank []int32) {
	byRank = make([]int32, len(in.names))
	for i := range byRank {
		byRank[i] = int32(i)
	}
	slices.SortFunc(byRank, func(a, b int32) int { return strings.Compare(in.names[a], in.names[b]) })
	rank = make([]int32, len(byRank))
	for r, id := range byRank {
		rank[id] = int32(r)
	}
	return rank, byRank
}

// eachCanonical calls f for every non-zero counter in canonical order:
// process, thread group and region name, then kind, ascending. Each name
// table is sorted once; cells then sort by integer keys, a row's rank in
// (process, thread) name order above the region's rank, which the row's
// slot table turns back into the cell.
func (c *Collector) eachCanonical(f func(cl *cell, k Kind, n uint64)) {
	procRank, _ := c.procs.ranks()
	threadRank, _ := c.threads.ranks()
	regionRank, regionByRank := c.regions.ranks()
	rowByRank := make([]int32, len(c.rows))
	for i := range rowByRank {
		rowByRank[i] = int32(i)
	}
	slices.SortFunc(rowByRank, func(a, b int32) int {
		ka, kb := c.rows[a].key, c.rows[b].key
		if d := cmp.Compare(procRank[ka.proc], procRank[kb.proc]); d != 0 {
			return d
		}
		return cmp.Compare(threadRank[ka.thread], threadRank[kb.thread])
	})
	rowRank := make([]int32, len(rowByRank))
	for r, id := range rowByRank {
		rowRank[id] = int32(r)
	}
	keys := make([]uint64, 0, len(c.cells))
	for i := range c.cells {
		if cl := &c.cells[i]; cl.n != [numKinds]uint64{} {
			keys = append(keys, uint64(rowRank[cl.row])<<32|uint64(regionRank[cl.region]))
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		cl := &c.cells[c.rows[rowByRank[key>>32]].slot[regionByRank[uint32(key)]]-1]
		for k, n := range cl.n {
			if n != 0 {
				f(cl, Kind(k), n)
			}
		}
	}
}

// Entries returns every non-zero counter of the matrix in canonical order
// (proc, thread, region, kind ascending by name), the order Fingerprint
// hashes. Two collectors with equal Entries hold bit-identical statistics
// even if their interned ID spaces differ — this is the comparison the
// determinism tests are built on.
func (c *Collector) Entries() []Entry {
	out := make([]Entry, 0, c.Cells())
	c.eachCanonical(func(cl *cell, k Kind, n uint64) {
		rk := c.rows[cl.row].key
		out = append(out, Entry{
			Proc:   c.ProcName(rk.proc),
			Thread: c.ThreadName(rk.thread),
			Region: c.RegionName(cl.region),
			Kind:   k,
			Count:  n,
		})
	})
	return out
}

// Fingerprint folds the canonical entry list into one FNV-1a hash: equal
// fingerprints mean bit-identical attributed counters. Each entry mixes its
// process, thread and region names, each followed by 0xff, then its kind and
// count as 8 little-endian bytes each. It is independent of interning
// order, so serial and parallel runs of the same seed compare equal.
func (c *Collector) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	c.eachCanonical(func(cl *cell, k Kind, n uint64) {
		rk := c.rows[cl.row].key
		h = fnvName(h, c.ProcName(rk.proc))
		h = fnvName(h, c.ThreadName(rk.thread))
		h = fnvName(h, c.RegionName(cl.region))
		h = fnvU64(h, uint64(k))
		h = fnvU64(h, n)
	})
	return h
}

// 64-bit FNV-1a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvName mixes the bytes of s and a 0xff field separator into h. A pure
// function of h keeps h in a register, which a closure over h does not.
func fnvName(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ 0xff) * fnvPrime64
}

// fnvU64 mixes v into h as 8 little-endian bytes.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// Agg accumulates the mean/min/max of a sample stream; the zero value is an
// empty aggregate. It backs the suite engine's repeated-seed summaries.
type Agg struct {
	N    int
	Sum  float64
	MinV float64
	MaxV float64
}

// Observe folds one sample into the aggregate.
func (a *Agg) Observe(v float64) {
	if a.N == 0 || v < a.MinV {
		a.MinV = v
	}
	if a.N == 0 || v > a.MaxV {
		a.MaxV = v
	}
	a.N++
	a.Sum += v
}

// Merge folds the aggregate other into a, as if a had observed every sample
// other summarizes (after its own). It is the distributed counterpart of
// Observe: the fleet executor builds per-shard partial aggregates worker-side
// and merges them coordinator-side in shard order, so the float fold tree —
// and therefore every rounding step — is identical between a serial run and
// any worker count.
func (a *Agg) Merge(other Agg) {
	if other.N == 0 {
		return
	}
	if a.N == 0 || other.MinV < a.MinV {
		a.MinV = other.MinV
	}
	if a.N == 0 || other.MaxV > a.MaxV {
		a.MaxV = other.MaxV
	}
	a.N += other.N
	a.Sum += other.Sum
}

// Mean reports the sample mean (zero when empty).
func (a Agg) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// Min reports the smallest sample (zero when empty).
func (a Agg) Min() float64 { return a.MinV }

// Max reports the largest sample (zero when empty).
func (a Agg) Max() float64 { return a.MaxV }

// Row is one entry of a Breakdown: a named count with its share of the total.
type Row struct {
	Name  string
	Count uint64
	Share float64 // fraction of the breakdown total, in [0,1]
}

// Breakdown is a sorted percentage decomposition of a counter fold.
type Breakdown struct {
	Rows  []Row
	Total uint64
}

// NewBreakdown sorts the fold m by descending count (name ascending on ties)
// and computes shares.
func NewBreakdown(m map[string]uint64) Breakdown {
	b := Breakdown{Rows: make([]Row, 0, len(m))}
	for name, n := range m {
		b.Total += n
		b.Rows = append(b.Rows, Row{Name: name, Count: n})
	}
	sort.Slice(b.Rows, func(i, j int) bool {
		if b.Rows[i].Count != b.Rows[j].Count {
			return b.Rows[i].Count > b.Rows[j].Count
		}
		return b.Rows[i].Name < b.Rows[j].Name
	})
	if b.Total > 0 {
		for i := range b.Rows {
			b.Rows[i].Share = float64(b.Rows[i].Count) / float64(b.Total)
		}
	}
	return b
}

// Share reports the share of the named row, zero when absent.
func (b Breakdown) Share(name string) float64 {
	for _, r := range b.Rows {
		if r.Name == name {
			return r.Share
		}
	}
	return 0
}

// Count reports the count of the named row, zero when absent.
func (b Breakdown) Count(name string) uint64 {
	for _, r := range b.Rows {
		if r.Name == name {
			return r.Count
		}
	}
	return 0
}

// Fold collapses the breakdown onto the given legend: rows whose name is in
// legend keep their identity, every other row is folded into a final
// "other (N items)" row, mirroring the paper's figure legends. Legend entries
// with zero counts are retained with zero share so series stay aligned across
// benchmarks.
func (b Breakdown) Fold(legend []string) Breakdown {
	inLegend := make(map[string]bool, len(legend))
	for _, name := range legend {
		inLegend[name] = true
	}
	counts := make(map[string]uint64, len(legend)+1)
	var other uint64
	otherItems := 0
	for _, r := range b.Rows {
		if inLegend[r.Name] {
			counts[r.Name] += r.Count
		} else {
			other += r.Count
			otherItems++
		}
	}
	out := Breakdown{Total: b.Total}
	for _, name := range legend {
		n := counts[name]
		row := Row{Name: name, Count: n}
		if b.Total > 0 {
			row.Share = float64(n) / float64(b.Total)
		}
		out.Rows = append(out.Rows, row)
	}
	otherRow := Row{Name: fmt.Sprintf("other (%d items)", otherItems), Count: other}
	if b.Total > 0 {
		otherRow.Share = float64(other) / float64(b.Total)
	}
	out.Rows = append(out.Rows, otherRow)
	return out
}

// TopN returns the first n rows (all rows when n exceeds the length).
func (b Breakdown) TopN(n int) []Row {
	if n > len(b.Rows) {
		n = len(b.Rows)
	}
	return b.Rows[:n]
}
