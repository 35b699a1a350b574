package kernel

import (
	"fmt"

	"agave/internal/cpu"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// chunk fixes where a bulk operation yields: Do, Copy and charge behave as if
// they accounted and charged one chunk of at most this many ticks at a time,
// so a thread yields after the first chunk whose charge reaches the end of
// its quantum and overruns the quantum by less than one chunk. It does not
// fix how often their loops run: each retires every chunk up to that one as
// one step (see slice).
const chunk = 4096

// Exec is a thread's handle on the machine: every instruction fetch and data
// reference a workload model issues flows through it and is attributed to
// (process, thread, region). It corresponds to the paper's modified
// gem5+kernel instrumentation.
//
// The *code-region stack* tracks which image's text is executing: workload
// models push "libskia.so" before raster work, the interpreter pushes
// "libdvm.so", syscalls push the kernel region, and Fetch attributes
// instruction reads to the top of the stack.
type Exec struct {
	K *Kernel
	P *Process
	T *Thread

	ctx  *cpu.Context
	code []*mem.VMA
	// row is the collector row of (P, T), interned once at spawn.
	row stats.RowID

	// codeBuf is the inline backing for code: real code stacks are a few
	// frames deep (kernel, app text, one or two libraries), so the stack
	// lives in the Exec itself and only pathological nesting spills to the
	// heap via append.
	codeBuf [8]*mem.VMA

	// pend batches this thread's counter deltas so the hot accounting path
	// is a linear scan of a few inline entries instead of a Collector map
	// update per Add. The scheduler flushes the buffer every time the
	// thread's quantum ends (see Kernel.Run), so whenever host code runs —
	// between Run calls, where the engine resets or reads the collector —
	// every off-CPU thread's counts are fully flushed. Deltas merge by
	// (region, kind); proc and thread are fixed per Exec. Buffering is
	// bypassed entirely while Collector.Tap is set: the trace hook must
	// observe every Add at its original granularity.
	pend  [8]pendEntry
	pendN int
}

// pendEntry is one merged, not-yet-flushed counter delta of Exec.pend.
type pendEntry struct {
	region stats.RegionID
	kind   stats.Kind
	n      uint64
}

// Now reports the simulated time. Time advances only between quanta, so
// within one quantum Now is constant.
func (ex *Exec) Now() sim.Ticks { return ex.K.Clock.Now() }

// RNG returns the process-private random source.
func (ex *Exec) RNG() *sim.RNG { return ex.P.RNG }

func (ex *Exec) account(region stats.RegionID, kind stats.Kind, n uint64) {
	if n == 0 {
		return
	}
	if ex.K.Stats.Tap != nil {
		ex.K.Stats.AddRow(ex.row, region, kind, n)
		return
	}
	for i := 0; i < ex.pendN; i++ {
		if ex.pend[i].region == region && ex.pend[i].kind == kind {
			ex.pend[i].n += n
			return
		}
	}
	if ex.pendN == len(ex.pend) {
		ex.FlushStats()
	}
	ex.pend[ex.pendN] = pendEntry{region: region, kind: kind, n: n}
	ex.pendN++
}

// FlushStats drains the batched counter deltas into the collector. The
// scheduler calls it at every quantum end; callers that read the collector
// from inside a running thread (none do today) would need to flush first.
func (ex *Exec) FlushStats() {
	for i := 0; i < ex.pendN; i++ {
		e := &ex.pend[i]
		ex.K.Stats.AddRow(ex.row, e.region, e.kind, e.n)
		*e = pendEntry{}
	}
	ex.pendN = 0
}

// charge consumes n ticks as whole chunks followed by a remainder of at
// most one chunk. The whole chunks before the one that reaches the end of
// the quantum ride along with it in one Charge, so the thread yields on the
// same tick as when charging one chunk at a time.
func (ex *Exec) charge(n uint64) {
	for n > chunk {
		whole := min((n-1)/chunk, ceilDiv(uint64(ex.ctx.Left()), chunk))
		ex.ctx.Charge(sim.Ticks(whole * chunk))
		n -= whole * chunk
	}
	if n > 0 {
		ex.ctx.Charge(sim.Ticks(n))
	}
}

// slice picks the next step of a bulk loop with rest iterations left, in
// chunks of step iterations that charge t ticks each. While a whole chunk is
// left it returns n = step and the number j of whole chunks to retire as one
// step: every chunk up to and including the first whose charge reaches the
// end of the quantum, or all of them when t is 0. With less than a chunk
// left it returns the tail, n = rest and j = 1. While Collector.Tap is set
// j is 1, so the trace sees every chunk as its own events.
func (ex *Exec) slice(rest, step, t uint64) (n, j uint64) {
	switch {
	case rest < step:
		return rest, 1
	case ex.K.Stats.Tap != nil:
		return step, 1
	case t == 0:
		return step, rest / step
	}
	return step, min(rest/step, ceilDiv(uint64(ex.ctx.Left()), t))
}

// retire charges j chunks of t ticks each: all but the last in one Charge,
// which slice guarantees cannot reach the end of the quantum, and the last
// through charge, where the thread may yield.
func (ex *Exec) retire(j, t uint64) {
	if j > 1 && t > 0 {
		ex.ctx.Charge(sim.Ticks((j - 1) * t))
	}
	ex.charge(t)
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// CurrentCode returns the VMA instruction fetches currently attribute to.
func (ex *Exec) CurrentCode() *mem.VMA {
	if len(ex.code) == 0 {
		panic(fmt.Sprintf("kernel: %s has no code region", ex.T))
	}
	return ex.code[len(ex.code)-1]
}

// PushCode makes v the current code region (a call into that image's text).
func (ex *Exec) PushCode(v *mem.VMA) {
	if v == nil {
		panic("kernel: PushCode(nil)")
	}
	ex.code = append(ex.code, v)
}

// PopCode returns to the caller's code region.
func (ex *Exec) PopCode() {
	if len(ex.code) <= 1 {
		panic("kernel: PopCode would empty the code stack")
	}
	ex.code = ex.code[:len(ex.code)-1]
}

// InCode runs f with v as the current code region.
func (ex *Exec) InCode(v *mem.VMA, f func()) {
	ex.PushCode(v)
	defer ex.PopCode()
	f()
}

// Fetch retires n instructions: n instruction reads attributed to the
// current code region and n ticks of simulated time.
func (ex *Exec) Fetch(n uint64) {
	if n == 0 {
		return
	}
	ex.account(ex.CurrentCode().Region, stats.IFetch, n)
	ex.charge(n)
}

// Read records n data reads against v's region. Data references ride along
// with instructions, so they consume no extra ticks; pair them with Fetch
// (or use Do/Copy which handle both).
func (ex *Exec) Read(v *mem.VMA, n uint64) {
	if n != 0 {
		ex.account(v.Region, stats.DataRead, n)
	}
}

// Write records n data writes against v's region.
func (ex *Exec) Write(v *mem.VMA, n uint64) {
	if n != 0 {
		ex.account(v.Region, stats.DataWrite, n)
	}
}

// ReadAt records one data read at addr, resolving the containing VMA. It
// panics on unmapped addresses: workload models must not wander.
func (ex *Exec) ReadAt(addr mem.Addr) {
	ex.account(ex.mustFind(addr).Region, stats.DataRead, 1)
}

// WriteAt records one data write at addr.
func (ex *Exec) WriteAt(addr mem.Addr) {
	ex.account(ex.mustFind(addr).Region, stats.DataWrite, 1)
}

func (ex *Exec) mustFind(addr mem.Addr) *mem.VMA {
	v := ex.P.AS.Find(addr)
	if v == nil {
		panic(fmt.Sprintf("kernel: %s touched unmapped address %#x", ex.T, addr))
	}
	return v
}

// Work describes one iteration of a homogeneous inner loop.
type Work struct {
	Fetch  uint64 // instructions per iteration
	Reads  uint64 // data reads per iteration
	Writes uint64 // data writes per iteration
	Data   *mem.VMA
	// Data2 optionally receives the same read/write counts as Data
	// (two-operand loops); nil for single-region loops.
	Data2 *mem.VMA
}

// Do executes iters iterations of w, accounting and charging them as chunks
// of step iterations so long loops remain preemptable. Each pass of the loop
// accounts a whole slice of chunks (see slice) and then charges it (see
// retire), so the thread yields on the same tick with the same counts as
// when retiring one chunk at a time.
func (ex *Exec) Do(w Work, iters uint64) {
	if iters == 0 {
		return
	}
	code := ex.CurrentCode().Region
	perIter := w.Fetch
	if perIter == 0 {
		perIter = 1
	}
	step := uint64(chunk) / perIter
	if step == 0 {
		step = 1
	}
	for done := uint64(0); done < iters; {
		n, j := ex.slice(iters-done, step, step*w.Fetch)
		m := j * n
		ex.account(code, stats.IFetch, m*w.Fetch)
		if w.Data != nil {
			ex.account(w.Data.Region, stats.DataRead, m*w.Reads)
			ex.account(w.Data.Region, stats.DataWrite, m*w.Writes)
		}
		if w.Data2 != nil {
			ex.account(w.Data2.Region, stats.DataRead, m*w.Reads)
			ex.account(w.Data2.Region, stats.DataWrite, m*w.Writes)
		}
		ex.retire(j, n*w.Fetch)
		done += m
	}
}

// Copy models a word-at-a-time copy loop of n words from src to dst:
// fetchPerWord instructions, one read of src and one write of dst per word.
// It retires chunks of chunk words in slices, as Do does.
func (ex *Exec) Copy(dst, src *mem.VMA, words, fetchPerWord uint64) {
	code := ex.CurrentCode().Region
	for done := uint64(0); done < words; {
		n, j := ex.slice(words-done, chunk, chunk*fetchPerWord)
		m := j * n
		ex.account(code, stats.IFetch, m*fetchPerWord)
		ex.account(src.Region, stats.DataRead, m)
		ex.account(dst.Region, stats.DataWrite, m)
		ex.retire(j, n*fetchPerWord)
		done += m
	}
}

// CopyBytes performs a real byte copy between VMA backing stores, accounting
// one reference per word on each side plus two instructions per word.
func (ex *Exec) CopyBytes(dst *mem.VMA, doff uint64, src *mem.VMA, soff, n uint64) {
	// Take the src view before the dst view: Slice may grow or thaw a store
	// (replacing its backing array), which would orphan a view taken earlier
	// in the same expression and lose the copy.
	from := src.Slice(soff, n)
	copy(dst.Slice(doff, n), from)
	words := (n + 3) / 4
	ex.Copy(dst, src, words, 2)
}

// StackWork models register-spill traffic: n instructions with a ~2:1
// read/write mix against the thread's stack region.
func (ex *Exec) StackWork(n uint64) {
	if ex.T.Stack == nil {
		ex.Fetch(n)
		return
	}
	ex.Do(Work{Fetch: 1, Reads: 1, Data: ex.T.Stack}, n*2/3)
	ex.Do(Work{Fetch: 1, Writes: 1, Data: ex.T.Stack}, n-n*2/3)
}

// Syscall models a trip into the kernel: instr instructions fetched from the
// kernel region and kdata data references (2/3 reads) against kernel
// structures.
func (ex *Exec) Syscall(instr, kdata uint64) {
	kv := ex.P.Layout.Kernel
	ex.PushCode(kv)
	ex.Do(Work{Fetch: 1, Data: kv}, instr-min(instr, kdata))
	if kdata > 0 {
		r := kdata * 2 / 3
		ex.Do(Work{Fetch: 1, Reads: 1, Data: kv}, r)
		ex.Do(Work{Fetch: 1, Writes: 1, Data: kv}, kdata-r)
	}
	ex.PopCode()
}

// SleepFor suspends the thread for d simulated ticks. A timer-tick syscall
// cost is charged on entry.
func (ex *Exec) SleepFor(d sim.Ticks) {
	ex.Syscall(220, 40)
	ex.ctx.Sleep(ex.K.Clock.Now() + d)
}

// SleepUntil suspends the thread until the clock reaches t (no-op if t has
// passed).
func (ex *Exec) SleepUntil(t sim.Ticks) {
	if t <= ex.K.Clock.Now() {
		return
	}
	ex.Syscall(220, 40)
	ex.ctx.Sleep(t)
}

// Yield lets the scheduler rotate to another runnable thread without
// blocking this one (sched_yield).
func (ex *Exec) Yield() {
	ex.Syscall(90, 12)
	ex.ctx.YieldNow()
}
