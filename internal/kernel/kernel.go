package kernel

import (
	"fmt"

	"agave/internal/cpu"
	"agave/internal/sim"
	"agave/internal/stats"
)

// Config sets the tunables of a kernel instance.
type Config struct {
	// Quantum is the scheduler time slice.
	Quantum sim.Ticks
	// Seed drives every stochastic decision in the simulation.
	Seed uint64
	// MemPages is the machine's physical page budget. Resident pages are
	// always accounted; a zero budget leaves the machine effectively
	// infinite, so nothing is ever short of memory.
	MemPages uint64
	// MinFree is the lowmemorykiller threshold ladder. When both MemPages
	// and MinFree are set, New spawns the kswapd0 kernel thread that kills
	// the worst oom_adj process whenever free pages fall below a rung.
	// Empty disables the killer.
	MinFree []MinFree
}

// idleRefDivisor sets how many kernel references the swapper idle loop
// generates: one instruction fetch per idleRefDivisor idle ticks.
const idleRefDivisor = 2048

// Kernel is the whole simulated machine: clock, scheduler, process table,
// timers, devices, and the stats collector that receives every attributed
// reference.
type Kernel struct {
	Stats *stats.Collector
	Clock sim.Clock
	Cfg   Config

	Timers sim.TimerQueue

	rng     *sim.RNG
	nextPID int
	nextTID int
	procs   []*Process
	threads []*Thread
	// live indexes the processes whose memory has not been released, in
	// creation order: what the killer scans. procs stays the census of
	// everything ever created.
	live []*Process

	// runq holds runnable threads in round-robin order.
	runq ring[*Thread]

	// wqSlab chunk-allocates wait-queue structs: every process spawn
	// creates several, and one allocation per chunk beats one per queue.
	// Handed-out entries are never reclaimed, so their addresses stay valid
	// for the life of the kernel.
	wqSlab []WaitQueue

	// Swapper is the idle process (pid 0); idle time charges references
	// to it, which is why it appears in the paper's Figures 3 and 4.
	Swapper *Process
	swapT   *Thread

	// Disk is the block storage device serviced by the ata_sff/0 kernel
	// thread.
	Disk *BlockDevice

	// usedPages is the machine-wide resident set (every live process's
	// countable pages); balloonPages is the extra demand Pressure events
	// inject. Free memory is MemPages minus both.
	usedPages    uint64
	balloonPages uint64
	lmk          lmkState
}

// New boots an empty machine: swapper and the ata_sff/0 storage thread
// exist; no user processes yet. A zero Quantum means 1 ms, a HZ=1000ish
// Gingerbread kernel.
func New(cfg Config) *Kernel {
	if cfg.Quantum == 0 {
		cfg.Quantum = sim.Millisecond
	}
	k := &Kernel{
		Stats:   stats.NewCollector(),
		Cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		nextPID: 0,
		nextTID: 0,
	}
	k.Swapper = k.NewKernelProcess("swapper")
	k.swapT = &Thread{
		TID:    k.nextTID,
		Name:   "swapper",
		Group:  "swapper",
		Proc:   k.Swapper,
		State:  StateRunnable,
		StatID: k.Stats.Thread("swapper"),
	}
	k.nextTID++
	k.Swapper.Threads = append(k.Swapper.Threads, k.swapT)
	k.Disk = newBlockDevice(k)
	if k.LMKEnabled() {
		k.startLMK()
	}
	return k
}

// addResidentPages applies a machine-wide resident-page delta (saturating
// at zero). Every process address space reports its mutations here.
func (k *Kernel) addResidentPages(delta int64) {
	if delta < 0 && uint64(-delta) > k.usedPages {
		k.usedPages = 0
		return
	}
	k.usedPages = uint64(int64(k.usedPages) + delta)
}

// FreePages reports how many pages of the physical budget remain. With no
// budget configured the machine is effectively infinite.
func (k *Kernel) FreePages() uint64 {
	if k.Cfg.MemPages == 0 {
		return ^uint64(0)
	}
	used := k.usedPages + k.balloonPages
	if used >= k.Cfg.MemPages {
		return 0
	}
	return k.Cfg.MemPages - used
}

// Balloon inflates (positive) or deflates (negative) the external memory
// demand — the scenario engine's Pressure events model "the rest of the
// device wants memory" without attributing it to any process.
func (k *Kernel) Balloon(deltaPages int64) {
	if deltaPages < 0 && uint64(-deltaPages) > k.balloonPages {
		k.balloonPages = 0
		return
	}
	k.balloonPages = uint64(int64(k.balloonPages) + deltaPages)
}

// RNG returns the kernel's root random source.
func (k *Kernel) RNG() *sim.RNG { return k.rng }

// Processes returns every process ever created, in creation order.
func (k *Kernel) Processes() []*Process { return k.procs }

// Threads returns every thread ever created, in creation order.
func (k *Kernel) Threads() []*Thread { return k.threads }

// FindProcess returns the first process with the given name, or nil.
func (k *Kernel) FindProcess(name string) *Process {
	for _, p := range k.procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ProcessCount counts processes created so far (including kernel ones).
func (k *Kernel) ProcessCount() int { return len(k.procs) }

// ThreadCount counts threads created so far (excluding swapper's implicit
// idle context).
func (k *Kernel) ThreadCount() int { return len(k.threads) }

func (k *Kernel) enqueue(t *Thread) {
	t.State = StateRunnable
	k.runq.push(t)
}

func (k *Kernel) dequeue() *Thread {
	for {
		t, ok := k.runq.pop()
		if !ok {
			return nil
		}
		if t.State == StateRunnable && t.ctx != nil && !t.ctx.Exited() {
			return t
		}
	}
}

// reclaimCtx releases an exited thread's cpu context to the process-wide
// pool, where its parked coroutine serves a later spawn, possibly in another
// kernel. The thread keeps State == StateExited and a nil ctx, in its Exec
// too, so no stale handle reaches a context that now serves another thread.
func (k *Kernel) reclaimCtx(t *Thread) {
	if t.ctx == nil || !t.ctx.Exited() {
		return
	}
	cpu.Release(t.ctx)
	t.ctx = nil
	t.exec.ctx = nil
}

// Wake moves a blocked thread back onto the run queue. Waking a runnable or
// exited thread is a no-op.
func (k *Kernel) Wake(t *Thread) {
	if t.State != StateBlocked && t.State != StateSleeping {
		return
	}
	k.enqueue(t)
}

// Run advances the machine until the simulated clock reaches deadline.
// Threads run in deterministic round-robin order; timers fire between
// quanta; idle time is charged to swapper.
func (k *Kernel) Run(deadline sim.Ticks) {
	for k.Clock.Now() < deadline {
		k.Timers.FireDue(k.Clock.Now())
		t := k.dequeue()
		if t == nil {
			k.idle(deadline)
			continue
		}
		t.State = StateRunning
		y := t.ctx.Run(k.Cfg.Quantum)
		// Flush the thread's batched stats deltas while it is off-CPU: the
		// collector is exact at every quantum boundary, so host code running
		// between Run calls (engine resets, report reads) sees counts
		// identical to unbatched accounting.
		t.exec.FlushStats()
		k.Clock.Advance(y.Used)
		switch y.Reason {
		default:
			panic(fmt.Sprintf("kernel: unknown yield reason %v", y.Reason))
		case cpu.YieldQuantum:
			k.enqueue(t)
		case cpu.YieldBlocked:
			t.State = StateBlocked
		case cpu.YieldSleep:
			t.State = StateSleeping
			// A thread has at most one pending sleep (it runs again only
			// after the wakeup fires), so its dedicated timer is free here.
			t.sleepTimer.When = y.WakeAt
			k.Timers.ScheduleTimer(&t.sleepTimer)
		case cpu.YieldExit:
			t.State = StateExited
			k.reclaimCtx(t)
		}
	}
}

// idle advances the clock to the next timer deadline (or the run deadline)
// and charges swapper's idle-loop references, which is how the swapper
// process earns its place in the paper's process breakdowns.
func (k *Kernel) idle(deadline sim.Ticks) {
	next := deadline
	if when, ok := k.Timers.NextDeadline(); ok && when < next {
		next = when
	}
	if next <= k.Clock.Now() {
		next = k.Clock.Now() + 1
	}
	idleTicks := next - k.Clock.Now()
	refs := uint64(idleTicks / idleRefDivisor)
	if refs > 0 {
		kv := k.Swapper.Layout.Kernel
		k.Stats.Add(k.Swapper.StatID, k.swapT.StatID, kv.Region, stats.IFetch, refs)
		k.Stats.Add(k.Swapper.StatID, k.swapT.StatID, kv.Region, stats.DataRead, refs/4)
	}
	k.Clock.Set(next)
}

// Shutdown kills every live thread and releases every context to the
// process-wide pool, leaving each thread's ctx nil; a context whose body
// panicked is dead and is dropped instead. The kernel must not be Run again
// afterwards. Every run path defers it, so the pool gets its contexts back
// even when a run panics.
func (k *Kernel) Shutdown() {
	for _, t := range k.threads {
		if t.ctx == nil {
			continue
		}
		if !t.ctx.Exited() {
			t.ctx.Kill()
		}
		t.State = StateExited
		k.reclaimCtx(t)
	}
}
