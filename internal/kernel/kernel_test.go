package kernel

import (
	"strings"
	"testing"

	"agave/internal/cpu"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

func newTestKernel() *Kernel {
	return New(Config{Quantum: 10 * sim.Microsecond, Seed: 42})
}

func TestBootHasSwapperAndAta(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	if k.FindProcess("swapper") == nil {
		t.Fatal("no swapper")
	}
	if k.FindProcess("ata_sff/0") == nil {
		t.Fatal("no ata_sff/0")
	}
	if k.Swapper.PID != 0 {
		t.Fatalf("swapper pid = %d, want 0", k.Swapper.PID)
	}
}

func TestSpawnAndRunAttributesRefs(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Fetch(1000)
		ex.Read(p.Layout.Heap, 300)
		ex.Write(p.Layout.Heap, 200)
	})
	k.Run(1 * sim.Millisecond)

	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch[mem.RegionAppBinary] != 1000 {
		t.Fatalf("app binary ifetch = %d, want 1000", ifetch[mem.RegionAppBinary])
	}
	data := k.Stats.ByRegion(stats.DataKinds...)
	if data[mem.RegionHeap] != 500 {
		t.Fatalf("heap data = %d, want 500", data[mem.RegionHeap])
	}
	byProc := k.Stats.ByProcess(stats.IFetch)
	if byProc["benchmark"] != 1000 {
		t.Fatalf("benchmark ifetch = %d", byProc["benchmark"])
	}
}

func TestSchedulerRoundRobinFairness(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	done := [2]bool{}
	for i := 0; i < 2; i++ {
		i := i
		k.SpawnThread(p, "worker", "worker", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			for j := 0; j < 100; j++ {
				ex.Fetch(1000)
			}
			done[i] = true
		})
	}
	k.Run(1 * sim.Millisecond)
	if !done[0] || !done[1] {
		t.Fatalf("round robin starved a thread: %v", done)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	var wokeAt sim.Ticks
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.SleepFor(5 * sim.Millisecond)
		wokeAt = ex.Now()
	})
	k.Run(20 * sim.Millisecond)
	if wokeAt < 5*sim.Millisecond {
		t.Fatalf("woke at %d, want >= 5ms", wokeAt)
	}
	if wokeAt > 6*sim.Millisecond {
		t.Fatalf("woke far too late: %d", wokeAt)
	}
}

func TestIdleChargesSwapper(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	k.Run(10 * sim.Millisecond) // nothing runnable: pure idle
	byProc := k.Stats.ByProcess(stats.IFetch)
	if byProc["swapper"] == 0 {
		t.Fatal("idle time did not charge swapper")
	}
	if k.Clock.Now() < 10*sim.Millisecond {
		t.Fatalf("clock did not reach deadline: %d", k.Clock.Now())
	}
}

func TestWaitQueueWakeOne(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	wq := k.NewWaitQueue("test")
	order := []int{}
	for i := 0; i < 2; i++ {
		i := i
		k.SpawnThread(p, "waiter", "waiter", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			ex.Wait(wq)
			order = append(order, i)
		})
	}
	k.SpawnThread(p, "waker", "waker", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.SleepFor(1 * sim.Millisecond)
		wq.WakeOne()
		ex.SleepFor(1 * sim.Millisecond)
		wq.WakeAll()
	})
	k.Run(5 * sim.Millisecond)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("wake order = %v, want [0 1] (FIFO)", order)
	}
}

func TestMsgQueueFIFOAndBlocking(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	q := NewMsgQueue[int](k, "q")
	var got []int
	k.SpawnThread(p, "consumer", "consumer", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(ex))
		}
	})
	k.SpawnThread(p, "producer", "producer", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		for i := 1; i <= 3; i++ {
			ex.SleepFor(sim.Millisecond)
			q.Send(ex, i)
		}
	})
	k.Run(10 * sim.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("received %v, want [1 2 3]", got)
	}
}

// TestRingFIFOAcrossCompaction drives the kernel's one FIFO with a seeded
// mix of pushes and pops against a plain slice. Every pop must return the
// reference's oldest value and len must agree; every slot before head and
// past len must be zero, so nothing dequeued stays reachable through the
// backing array.
func TestRingFIFOAcrossCompaction(t *testing.T) {
	rng := sim.NewRNG(7)
	var r ring[*int]
	var ref []*int
	compactions := 0
	for op := 0; op < 5000; op++ {
		if rng.Intn(5) < 3 {
			v := new(int)
			*v = op
			if r.head > 0 && len(r.buf) == cap(r.buf) {
				compactions++
			}
			r.push(v)
			ref = append(ref, v)
		} else {
			got, ok := r.pop()
			switch {
			case len(ref) == 0 && ok:
				t.Fatalf("op %d: pop from an empty ring returned %d", op, *got)
			case len(ref) > 0 && (!ok || got != ref[0]):
				t.Fatalf("op %d: pop = %v, %v; want %d", op, got, ok, *ref[0])
			case len(ref) > 0:
				ref = ref[1:]
			}
		}
		if r.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", op, r.len(), len(ref))
		}
		if head, ok := r.peek(); ok != (len(ref) > 0) || ok && head != ref[0] {
			t.Fatalf("op %d: peek = %v, %v", op, head, ok)
		}
		for i, v := range r.buf[:r.head] {
			if v != nil {
				t.Fatalf("op %d: dequeued slot %d still holds %d", op, i, *v)
			}
		}
		for i, v := range r.buf[len(r.buf):cap(r.buf)] {
			if v != nil {
				t.Fatalf("op %d: slot %d past len holds %d", op, len(r.buf)+i, *v)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no push compacted the ring")
	}
}

// TestMailboxRoundTripDoesNotAllocate: a mailbox holds messages by value, so
// sending and receiving a non-pointer struct through it allocates nothing
// once the queue's backing array has grown.
func TestMailboxRoundTripDoesNotAllocate(t *testing.T) {
	type msg struct {
		proc   *Process
		seq    int
		target string
		kind   string
	}
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	q := NewMsgQueue[msg](k, "q")
	received, bad := 0, 0
	k.SpawnThread(p, "consumer", "consumer", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		for {
			if m := q.Recv(ex); m.proc != p || m.seq != received || m.target != "game" || m.kind != "tap" {
				bad++
			}
			received++
		}
	})
	k.SpawnThread(p, "producer", "producer", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		for i := 0; ; i++ {
			q.Send(ex, msg{proc: p, seq: i, target: "game", kind: "tap"})
			ex.SleepFor(50 * sim.Microsecond)
		}
	})
	k.Run(5 * sim.Millisecond)
	before := received
	allocs := testing.AllocsPerRun(10, func() { k.Run(k.Clock.Now() + sim.Millisecond) })
	if allocs != 0 {
		t.Fatalf("a simulated ms of mailbox round trips allocated %.1f times, want 0", allocs)
	}
	if received-before < 10*15 || bad != 0 {
		t.Fatalf("received %d messages in 11 ms (%d wrong), want ~20 per ms, all in order", received-before, bad)
	}
}

func TestForkSharesReadonlyCopiesPrivate(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	parent := k.NewProcess("zygote", 1<<20, 1<<20)
	parent.Layout.Heap.Bytes()[0] = 7
	child := k.Fork(parent, "benchmark")
	if child.PID == parent.PID {
		t.Fatal("fork reused pid")
	}
	if child.Parent != parent {
		t.Fatal("parent link missing")
	}
	ch := child.AS.FindByName(mem.RegionHeap)
	if ch.Bytes()[0] != 7 {
		t.Fatal("child heap lost parent data")
	}
	ch.Bytes()[0] = 9
	if parent.Layout.Heap.Bytes()[0] != 7 {
		t.Fatal("child write leaked into parent heap")
	}
}

func TestBlockReadDrivesAta(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	doneAt := sim.Ticks(0)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.BlockRead(p.Layout.Heap, 64*1024)
		doneAt = ex.Now()
	})
	k.Run(50 * sim.Millisecond)
	if doneAt == 0 {
		t.Fatal("BlockRead never completed")
	}
	if k.Disk.BytesRead != 64*1024 {
		t.Fatalf("disk transferred %d bytes", k.Disk.BytesRead)
	}
	byProc := k.Stats.ByProcess()
	if byProc["ata_sff/0"] == 0 {
		t.Fatal("ata_sff/0 earned no references")
	}
	// The read landed in the heap region via copy_to_user.
	if k.Stats.ByRegion(stats.DataWrite)[mem.RegionHeap] == 0 {
		t.Fatal("no copy_to_user writes to heap")
	}
}

func TestSyscallAttributesKernelRegion(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Syscall(500, 100)
	})
	k.Run(sim.Millisecond)
	// Fold by process to exclude swapper-idle and ata refs, which also
	// land in the kernel region.
	if got := k.Stats.ByProcess(stats.IFetch)["benchmark"]; got != 500 {
		t.Fatalf("benchmark ifetch = %d, want 500 (all kernel-mode)", got)
	}
	if got := k.Stats.ByProcess(stats.DataKinds...)["benchmark"]; got != 100 {
		t.Fatalf("benchmark data = %d, want 100", got)
	}
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionKernel]; got < 500 {
		t.Fatalf("kernel-region ifetch = %d, want >= 500", got)
	}
}

func TestThreadStacks(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	t1 := k.SpawnThread(p, "main", "main", func(ex *Exec) {})
	t2 := k.SpawnThread(p, "worker", "Thread", func(ex *Exec) {})
	if t1.Stack.Name != mem.RegionStack {
		t.Fatalf("main stack region = %q", t1.Stack.Name)
	}
	if t2.Stack.Name != mem.RegionAnonymous {
		t.Fatalf("pthread stack region = %q (want anonymous, as on Gingerbread)", t2.Stack.Name)
	}
	k.Run(sim.Millisecond)
}

func TestStackWorkSplitsReadsWrites(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.StackWork(900)
	})
	k.Run(sim.Millisecond)
	r := k.Stats.ByRegion(stats.DataRead)[mem.RegionStack]
	w := k.Stats.ByRegion(stats.DataWrite)[mem.RegionStack]
	if r == 0 || w == 0 {
		t.Fatalf("stack refs r=%d w=%d", r, w)
	}
	if r <= w {
		t.Fatalf("expected read-heavy stack mix, got r=%d w=%d", r, w)
	}
}

func TestDeterministicWholeRun(t *testing.T) {
	run := func() uint64 {
		k := newTestKernel()
		defer k.Shutdown()
		p := k.NewProcess("benchmark", 1<<20, 1<<20)
		for i := 0; i < 3; i++ {
			k.SpawnThread(p, "worker", "worker", func(ex *Exec) {
				ex.PushCode(p.Layout.Text)
				for j := 0; j < 50; j++ {
					ex.Fetch(uint64(100 + ex.RNG().Intn(100)))
					ex.SleepFor(sim.Ticks(ex.RNG().Range(10, 100)) * sim.Microsecond)
				}
			})
		}
		k.Run(10 * sim.Millisecond)
		return k.Stats.Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("whole-system runs diverged: %d vs %d", a, b)
	}
}

func TestYieldRotates(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.SpawnThread(p, "y", "y", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			for j := 0; j < 3; j++ {
				ex.Fetch(10)
				order = append(order, i)
				ex.Yield()
			}
		})
	}
	k.Run(5 * sim.Millisecond)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// Strict alternation 0,1,0,1,...
	for j := 0; j < 6; j++ {
		if order[j] != j%2 {
			t.Fatalf("yield did not rotate: %v", order)
		}
	}
}

func TestExitedThreadNotRescheduled(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	runs := 0
	k.SpawnThread(p, "oneshot", "oneshot", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Fetch(10)
		runs++
	})
	k.Run(2 * sim.Millisecond)
	if runs != 1 {
		t.Fatalf("thread body ran %d times", runs)
	}
	if p.LiveThreads() != 0 {
		t.Fatalf("live threads = %d", p.LiveThreads())
	}
}

func TestProcessAndThreadCounts(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	base := k.ProcessCount()
	p := k.NewProcess("a", 1<<20, 1<<20)
	k.Fork(p, "b")
	if k.ProcessCount() != base+2 {
		t.Fatalf("process count = %d, want %d", k.ProcessCount(), base+2)
	}
}

func TestKillProcessStopsThreadsMidRun(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	victim := k.NewProcess("victim", 1<<20, 1<<20)
	var victimRefs uint64
	for i := 0; i < 3; i++ {
		k.SpawnThread(victim, "worker", "worker", func(ex *Exec) {
			ex.PushCode(victim.Layout.Text)
			for {
				ex.Fetch(100)
				victimRefs += 100
				ex.SleepFor(50 * sim.Microsecond)
			}
		})
	}
	// A killer thread in another process terminates the victim mid-run —
	// the scenario driver's teardown path.
	killer := k.NewProcess("killer", 1<<20, 1<<20)
	k.SpawnThread(killer, "main", "main", func(ex *Exec) {
		ex.PushCode(killer.Layout.Text)
		ex.SleepFor(300 * sim.Microsecond)
		k.KillProcess(victim)
	})
	k.Run(1 * sim.Millisecond)
	if got := victim.LiveThreads(); got != 0 {
		t.Fatalf("victim live threads after kill = %d, want 0", got)
	}
	atKill := victimRefs
	if atKill == 0 {
		t.Fatal("victim never ran before the kill")
	}
	// Nothing of the victim runs after the kill.
	k.Run(2 * sim.Millisecond)
	if victimRefs != atKill {
		t.Fatalf("victim issued %d refs after being killed", victimRefs-atKill)
	}
	// Census still counts the dead process; the live count does not.
	if k.FindProcess("victim") == nil {
		t.Fatal("killed process vanished from the process table")
	}
	if lc, tc := k.LiveProcessCount(), k.ProcessCount(); lc >= tc {
		t.Fatalf("live process count %d not below total %d", lc, tc)
	}
	// Killing an already-dead process is a no-op.
	k.KillProcess(victim)
}

func TestKillProcessWakeOnDeadThreadIsNoop(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("victim", 1<<20, 1<<20)
	wq := k.NewWaitQueue("test.park")
	k.SpawnThread(p, "parked", "parked", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Wait(wq)
	})
	k.Run(100 * sim.Microsecond)
	k.KillProcess(p)
	// A waker finding the dead thread on the queue must not resurrect it.
	wq.WakeAll()
	k.Run(200 * sim.Microsecond)
	if p.LiveThreads() != 0 {
		t.Fatal("dead thread came back to life")
	}
}

// TestRunAfterBodyPanicIsClean runs the way every run path does, with a
// deferred Shutdown. A thread body's panic must reach Kernel.Run's caller
// with its own value, and the context it killed must not be handed to the
// next kernel: a clean run afterwards matches a clean run before.
func TestRunAfterBodyPanicIsClean(t *testing.T) {
	run := func(fail bool) uint64 {
		k := newTestKernel()
		defer k.Shutdown()
		p := k.NewProcess("benchmark", 1<<20, 1<<20)
		wq := k.NewWaitQueue("test.park")
		k.SpawnThread(p, "parked", "parked", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			ex.Fetch(100)
			ex.Wait(wq)
		})
		k.SpawnThread(p, "sleeper", "sleeper", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			for {
				ex.Fetch(200)
				ex.SleepFor(300 * sim.Microsecond)
			}
		})
		// Spawned last, so a context it left in the pool would be the
		// first one the next kernel takes.
		k.SpawnThread(p, "faulty", "faulty", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			ex.Fetch(500)
			if fail {
				panic("thread body fault")
			}
			ex.Fetch(500)
		})
		k.Run(2 * sim.Millisecond)
		return k.Stats.Fingerprint()
	}
	first := run(false)
	func() {
		defer func() {
			if r := recover(); r != "thread body fault" {
				t.Fatalf("recovered %v, want the thread body's panic", r)
			}
		}()
		run(true)
		t.Fatal("the body's panic did not reach Kernel.Run's caller")
	}()
	if third := run(false); third != first {
		t.Fatalf("clean run after a panicked one: fingerprint %#x, want %#x", third, first)
	}
}

func TestKillProcessFromItsOwnThreadPanics(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("victim", 1<<20, 1<<20)
	th := k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Fetch(10)
		k.KillProcess(p)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "kernel: ") || !strings.Contains(msg, th.String()) {
			t.Fatalf("recovered %q, want a kernel: panic naming %s", msg, th)
		}
	}()
	k.Run(1 * sim.Millisecond)
	t.Fatal("self-kill did not panic")
}

// TestKillFromAnotherThreadFreesContexts has a running thread kill a process
// whose threads are blocked, sleeping and never run; the contexts that frees
// serve the killer's next spawns.
func TestKillFromAnotherThreadFreesContexts(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	victim := k.NewProcess("victim", 1<<20, 1<<20)
	wq := k.NewWaitQueue("test.park")
	k.SpawnThread(victim, "parked", "parked", func(ex *Exec) {
		ex.PushCode(victim.Layout.Text)
		ex.Wait(wq)
	})
	k.SpawnThread(victim, "sleeper", "sleeper", func(ex *Exec) {
		ex.PushCode(victim.Layout.Text)
		ex.SleepFor(10 * sim.Millisecond)
	})
	killer := k.NewProcess("killer", 1<<20, 1<<20)
	reused, ran := 0, 0
	k.SpawnThread(killer, "main", "main", func(ex *Exec) {
		ex.PushCode(killer.Layout.Text)
		ex.SleepFor(100 * sim.Microsecond)
		k.SpawnThread(victim, "unborn", "unborn", func(*Exec) {
			t.Error("a thread killed before its first quantum ran")
		})
		freed := map[*cpu.Context]bool{}
		for _, vt := range victim.Threads {
			freed[vt.ctx] = true
		}
		k.KillProcess(victim)
		for range victim.Threads {
			nt := k.SpawnThread(killer, "reuse", "reuse", func(ex *Exec) {
				ex.Fetch(10)
				ran++
			})
			if freed[nt.ctx] {
				reused++
			}
		}
	})
	k.Run(1 * sim.Millisecond)
	if victim.LiveThreads() != 0 {
		t.Fatalf("victim live threads = %d, want 0", victim.LiveThreads())
	}
	if n := len(victim.Threads); reused != n || ran != n {
		t.Fatalf("%d of %d spawns reused a freed context and %d ran", reused, n, ran)
	}
}

func TestShutdownReleasesEveryContext(t *testing.T) {
	k := newTestKernel()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	wq := k.NewWaitQueue("test.park")
	k.SpawnThread(p, "exits", "exits", func(ex *Exec) { ex.Fetch(10) })
	k.SpawnThread(p, "parked", "parked", func(ex *Exec) { ex.Wait(wq) })
	k.SpawnThread(p, "sleeper", "sleeper", func(ex *Exec) { ex.SleepFor(sim.Second) })
	k.SpawnThread(p, "spinner", "spinner", func(ex *Exec) {
		for {
			ex.Fetch(1000)
		}
	})
	k.Run(100 * sim.Microsecond)
	k.SpawnThread(p, "unborn", "unborn", func(*Exec) {})
	k.Shutdown()
	for _, th := range k.Threads() {
		if th.ctx != nil || th.State != StateExited {
			t.Fatalf("%s after Shutdown: ctx %p, state %d", th, th.ctx, th.State)
		}
	}
}
