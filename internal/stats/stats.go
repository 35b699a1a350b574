// Package stats implements the reference-accounting engine of the Agave
// reproduction. It plays the role of the gem5/kernel modifications described
// in the paper: every instruction fetch and data reference in the simulation
// is attributed to a (process, thread, virtual-memory region) triple, and the
// figures and tables of the evaluation are folds over the resulting counter
// matrix.
//
// Names are interned to small integer IDs, and each (process, thread group)
// pair to a row, so a counter cell's key is one packed uint64 and the hot
// accounting path is one integer-keyed map update. Thread names are
// registered by *group* name (for example, all "AsyncTask #N" pool workers
// account as "AsyncTask"), matching how the paper's Table I ranks threads.
package stats

import (
	"fmt"
	"sort"
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

	// rows interns (process, thread group) pairs; rowKeys[id] unpacks one.
	// Rows outlive Reset, so a row cached before it stays valid.
	rows    map[rowKey]RowID
	rowKeys []rowKey

	// counts holds one cell per (row, region, kind), keyed by cell.
	counts map[uint64]uint64
}

type rowKey struct {
	proc   ProcID
	thread ThreadID
}

// cell packs a counter cell's coordinates into its map key,
// row<<32 | region<<2 | kind. The region field has 30 bits, so the packing
// holds until a collector interns 2^30 region names.
func cell(row RowID, r RegionID, k Kind) uint64 {
	return uint64(row)<<32 | uint64(r)<<2 | uint64(k)
}

func cellRegion(key uint64) RegionID { return RegionID(key >> 2 & (1<<30 - 1)) }

func cellKind(key uint64) Kind { return Kind(key & 3) }

// cellRow unpacks the (process, thread group) pair of a cell key.
func (c *Collector) cellRow(key uint64) rowKey { return c.rowKeys[key>>32] }

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		procs:   newInterner(),
		threads: newInterner(),
		regions: newInterner(),
		rows:    make(map[rowKey]RowID),
		counts:  make(map[uint64]uint64),
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
	if id, ok := c.rows[k]; ok {
		return id
	}
	id := RowID(len(c.rowKeys))
	c.rows[k] = id
	c.rowKeys = append(c.rowKeys, k)
	return id
}

// Add records n accesses of class k issued by (proc p, thread t) against
// region r.
func (c *Collector) Add(p ProcID, t ThreadID, r RegionID, k Kind, n uint64) {
	if n == 0 {
		return
	}
	c.AddRow(c.Row(p, t), r, k, n)
}

// AddRow is Add for a pair already interned by Row.
func (c *Collector) AddRow(row RowID, r RegionID, k Kind, n uint64) {
	if n == 0 {
		return
	}
	c.counts[cell(row, r, k)] += n
}

// Total reports the number of accesses across the given classes (all classes
// when none are given).
func (c *Collector) Total(kinds ...Kind) uint64 {
	sel := selectKinds(kinds)
	var sum uint64
	for k, v := range c.counts {
		if sel[cellKind(k)] {
			sum += v
		}
	}
	return sum
}

// fold sums the counts of the given classes into a map keyed by name(cell).
func (c *Collector) fold(kinds []Kind, name func(key uint64) string) map[string]uint64 {
	sel := selectKinds(kinds)
	out := make(map[string]uint64)
	for k, v := range c.counts {
		if sel[cellKind(k)] {
			out[name(k)] += v
		}
	}
	return out
}

func (c *Collector) regionOf(key uint64) string { return c.RegionName(cellRegion(key)) }

// ByRegion folds counts of the given classes by region name.
func (c *Collector) ByRegion(kinds ...Kind) map[string]uint64 {
	return c.fold(kinds, c.regionOf)
}

// ByProcess folds counts of the given classes by process name.
func (c *Collector) ByProcess(kinds ...Kind) map[string]uint64 {
	return c.fold(kinds, func(key uint64) string { return c.ProcName(c.cellRow(key).proc) })
}

// ByThread folds counts of the given classes by thread group name.
func (c *Collector) ByThread(kinds ...Kind) map[string]uint64 {
	return c.fold(kinds, func(key uint64) string { return c.ThreadName(c.cellRow(key).thread) })
}

// RegionCount reports how many distinct regions received at least one access
// of the given classes. This backs the paper's "code regions"/"data regions"
// per-application scalar metrics. The seen table is a dense bool slice over
// the region ID space: region IDs are small and dense by construction.
func (c *Collector) RegionCount(kinds ...Kind) int {
	sel := selectKinds(kinds)
	seen := make([]bool, len(c.regions.names))
	n := 0
	for k, v := range c.counts {
		if r := cellRegion(k); v > 0 && sel[cellKind(k)] && !seen[r] {
			seen[r] = true
			n++
		}
	}
	return n
}

// Cells reports the number of distinct counter cells currently held.
func (c *Collector) Cells() int { return len(c.counts) }

// Reset clears all counts but keeps interned names and rows — and, because
// clear preserves the map's buckets, the counter table stays preallocated at its
// high-water size. A warmed collector's next measurement interval therefore
// inserts into a table that already fits the cells the warmup populated,
// which is exactly the engine's reset-after-boot pattern.
func (c *Collector) Reset() { clear(c.counts) }

// Entry is one cell of the counter matrix in name (not ID) space.
type Entry struct {
	Proc   string
	Thread string
	Region string
	Kind   Kind
	Count  uint64
}

// Entries returns every non-zero cell of the counter matrix in canonical
// order (proc, thread, region, kind ascending by name). Two collectors with
// equal Entries hold bit-identical statistics even if their interned ID
// spaces differ — this is the comparison the suite determinism tests and the
// JSON export are built on.
func (c *Collector) Entries() []Entry {
	out := make([]Entry, 0, len(c.counts))
	for k, v := range c.counts {
		if v == 0 {
			continue
		}
		rk := c.cellRow(k)
		out = append(out, Entry{
			Proc:   c.ProcName(rk.proc),
			Thread: c.ThreadName(rk.thread),
			Region: c.RegionName(cellRegion(k)),
			Kind:   cellKind(k),
			Count:  v,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// Fingerprint folds the canonical entry list into one FNV-1a hash: equal
// fingerprints mean bit-identical attributed counters. It is independent of
// interning order, so serial and parallel runs of the same seed compare
// equal.
func (c *Collector) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
		h = (h ^ 0xff) * prime64 // field separator
	}
	mixU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	for _, e := range c.Entries() {
		mix(e.Proc)
		mix(e.Thread)
		mix(e.Region)
		mixU64(uint64(e.Kind))
		mixU64(e.Count)
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
