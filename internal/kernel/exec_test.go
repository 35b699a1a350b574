package kernel

import (
	"testing"

	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// execHarness runs body on a fresh process main thread and returns the
// kernel after the machine goes idle.
func execHarness(t *testing.T, body func(ex *Exec, p *Process)) *Kernel {
	t.Helper()
	k := New(Config{Quantum: 50 * sim.Microsecond, Seed: 1})
	t.Cleanup(k.Shutdown)
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		body(ex, p)
	})
	k.Run(20 * sim.Millisecond)
	return k
}

func TestCodeStackNesting(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		lib := p.AS.MapAnywhere(mem.MmapBase, 1<<16, "libfoo.so", mem.PermRead|mem.PermExec, mem.ClassText)
		ex.Fetch(10) // app binary
		ex.InCode(lib, func() {
			ex.Fetch(20) // libfoo.so
			ex.InCode(p.Layout.Kernel, func() {
				ex.Fetch(5) // kernel
			})
			ex.Fetch(3) // back in libfoo.so
		})
		ex.Fetch(7) // back in app binary
	})
	got := k.Stats.ByRegion(stats.IFetch)
	if got[mem.RegionAppBinary] != 17 || got["libfoo.so"] != 23 || got[mem.RegionKernel] < 5 {
		t.Fatalf("nested attribution wrong: %v", got)
	}
}

func TestPopCodeUnderflowPanics(t *testing.T) {
	panicked := false
	execHarness(t, func(ex *Exec, p *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		// The stack holds [kernel, app text]: the first pop is legal,
		// the second would empty the stack and must refuse.
		ex.PopCode()
		ex.PopCode()
	})
	if !panicked {
		t.Fatal("PopCode underflow did not panic")
	}
}

func TestDoAccountsExactCounts(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		ex.Do(Work{Fetch: 3, Reads: 2, Writes: 1, Data: p.Layout.Heap}, 10_000)
	})
	ifetch := k.Stats.ByRegion(stats.IFetch)[mem.RegionAppBinary]
	if ifetch != 30_000 {
		t.Fatalf("Do fetch = %d, want 30000", ifetch)
	}
	if r := k.Stats.ByRegion(stats.DataRead)[mem.RegionHeap]; r != 20_000 {
		t.Fatalf("Do reads = %d, want 20000", r)
	}
	if w := k.Stats.ByRegion(stats.DataWrite)[mem.RegionHeap]; w != 10_000 {
		t.Fatalf("Do writes = %d, want 10000", w)
	}
}

func TestDoZeroItersIsNoop(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		ex.Do(Work{Fetch: 5, Reads: 1, Data: p.Layout.Heap}, 0)
	})
	if got := k.Stats.ByProcess()["benchmark"]; got != 0 {
		t.Fatalf("zero-iteration Do accounted %d refs", got)
	}
}

func TestCopyAccountsBothSides(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		anon := p.Layout.MapAnon(p.AS, 1<<16)
		ex.Copy(anon, p.Layout.Heap, 1000, 2)
	})
	if r := k.Stats.ByRegion(stats.DataRead)[mem.RegionHeap]; r != 1000 {
		t.Fatalf("Copy reads = %d", r)
	}
	if w := k.Stats.ByRegion(stats.DataWrite)[mem.RegionAnonymous]; w != 1000 {
		t.Fatalf("Copy writes = %d", w)
	}
	if f := k.Stats.ByRegion(stats.IFetch)[mem.RegionAppBinary]; f != 2000 {
		t.Fatalf("Copy fetches = %d", f)
	}
}

func TestChargeAdvancesSimulatedTime(t *testing.T) {
	var before, after sim.Ticks
	k := execHarness(t, func(ex *Exec, p *Process) {
		before = ex.Now()
		ex.Fetch(500_000)
		// Time is only observable across a yield; force one.
		ex.Yield()
		after = ex.Now()
	})
	_ = k
	if after-before < 500_000 {
		t.Fatalf("500k instructions advanced only %d ticks", after-before)
	}
}

func TestSyscallFetchSplit(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		ex.Syscall(1000, 300)
	})
	// All syscall fetches are kernel-region; exactly `instr` many.
	if f := k.Stats.ByProcess(stats.IFetch)["benchmark"]; f != 1000 {
		t.Fatalf("syscall fetches = %d, want 1000", f)
	}
	if d := k.Stats.ByProcess(stats.DataKinds...)["benchmark"]; d != 300 {
		t.Fatalf("syscall data = %d, want 300", d)
	}
}

// TestCollectorExactWithinQuantum: accounting adds straight into the
// collector, so a thread reading it between two fetches of one quantum sees
// both, with no flush at the quantum's end.
func TestCollectorExactWithinQuantum(t *testing.T) {
	var first, second uint64
	var moved bool
	execHarness(t, func(ex *Exec, p *Process) {
		start := ex.Now()
		ex.Fetch(10)
		first = ex.K.Stats.ByProcess(stats.IFetch)["benchmark"]
		ex.Fetch(20)
		second = ex.K.Stats.ByProcess(stats.IFetch)["benchmark"]
		moved = ex.Now() != start
	})
	if moved {
		t.Fatal("the fetches spanned two quanta")
	}
	if first != 10 || second != 30 {
		t.Fatalf("collector read %d then %d inside one quantum, want 10 then 30", first, second)
	}
}

// TestAccountingIntoTouchedCellsDoesNotAllocate: once a thread has touched
// a (region, kind) cell, Fetch, Read and Write into it allocate nothing.
func TestAccountingIntoTouchedCellsDoesNotAllocate(t *testing.T) {
	allocs := -1.0
	execHarness(t, func(ex *Exec, p *Process) {
		heap := p.Layout.Heap
		access := func() {
			ex.Fetch(1)
			ex.Read(heap, 1)
			ex.Write(heap, 1)
		}
		access()
		allocs = testing.AllocsPerRun(100, access)
	})
	if allocs != 0 {
		t.Fatalf("Fetch, Read and Write into touched cells allocated %.1f times per run, want 0", allocs)
	}
}
