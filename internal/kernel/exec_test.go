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

func TestReadWriteAtResolveVMA(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		ex.ReadAt(p.Layout.Heap.Start + 64)
		ex.WriteAt(p.Layout.Stack.End - 8)
	})
	if k.Stats.ByRegion(stats.DataRead)[mem.RegionHeap] != 1 {
		t.Fatal("ReadAt misattributed")
	}
	if k.Stats.ByRegion(stats.DataWrite)[mem.RegionStack] != 1 {
		t.Fatal("WriteAt misattributed")
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	panicked := false
	execHarness(t, func(ex *Exec, p *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ex.ReadAt(0xdead0000) // far outside any mapping
	})
	if !panicked {
		t.Fatal("unmapped access did not panic")
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

// TestTapSeesEveryChunk pins the trace rule: while a Tap is attached, bulk
// helpers retire one chunk per step, so a Do spanning K chunks emits
// exactly K instruction-fetch events instead of one per quantum slice.
func TestTapSeesEveryChunk(t *testing.T) {
	const chunks = 37 // 37 × 4096 ticks spans three 50 µs quanta
	var events, refs uint64
	k := execHarness(t, func(ex *Exec, p *Process) {
		text := p.Layout.Text.Region
		ex.K.Stats.Tap = func(_ stats.ProcID, _ stats.ThreadID, r stats.RegionID, kind stats.Kind, n uint64) {
			if r == text && kind == stats.IFetch {
				events++
				refs += n
			}
		}
		ex.Do(Work{Fetch: 2, Reads: 1, Data: p.Layout.Heap}, chunks*chunk/2)
	})
	if events != chunks || refs != chunks*chunk {
		t.Fatalf("traced Do emitted %d fetch events for %d refs, want %d for %d", events, refs, chunks, chunks*chunk)
	}
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionAppBinary]; got != refs {
		t.Fatalf("traced fetch refs %d, collector %d", refs, got)
	}
}

func TestDoWithTwoRegions(t *testing.T) {
	k := execHarness(t, func(ex *Exec, p *Process) {
		anon := p.Layout.MapAnon(p.AS, 1<<16)
		ex.Do(Work{Fetch: 1, Reads: 1, Data: p.Layout.Heap, Data2: anon}, 500)
	})
	if r := k.Stats.ByRegion(stats.DataRead); r[mem.RegionHeap] != 500 || r[mem.RegionAnonymous] != 500 {
		t.Fatalf("two-region Do wrong: %v", r)
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

func TestCopyBytesMovesRealData(t *testing.T) {
	execHarness(t, func(ex *Exec, p *Process) {
		src := p.Layout.MapAnon(p.AS, 1<<12)
		dst := p.Layout.MapAnon(p.AS, 1<<12)
		for i := 0; i < 256; i++ {
			src.Bytes()[i] = byte(i)
		}
		ex.CopyBytes(dst, 0, src, 0, 256)
		for i := 0; i < 256; i++ {
			if dst.Bytes()[i] != byte(i) {
				t.Fatalf("CopyBytes lost data at %d", i)
			}
		}
	})
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
