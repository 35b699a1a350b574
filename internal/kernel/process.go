// Package kernel models the operating-system layer the paper instruments: a
// Linux-2.6.35-like kernel with processes, threads, a deterministic
// scheduler, syscall-time attribution to the "OS kernel" region, kernel
// service threads (swapper, ata_sff/0), and the wait/wake primitives the
// Android stack models build on.
package kernel

import (
	"fmt"
	"slices"

	"agave/internal/cpu"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// ThreadState tracks where a thread is from the scheduler's point of view.
type ThreadState uint8

// Thread states.
const (
	StateRunnable ThreadState = iota
	StateRunning
	StateSleeping
	StateBlocked
	StateExited
)

// Process is one simulated process: a name (the unit of the paper's Figures
// 3 and 4), an address space, and a set of threads.
type Process struct {
	PID    int
	Name   string
	AS     *mem.AddressSpace
	Layout *mem.Layout
	Parent *Process

	// StatID is the interned stats process ID for Name.
	StatID stats.ProcID

	// RNG is the process-private deterministic random source.
	RNG *sim.RNG

	// OomAdj is the lowmemorykiller badness score the ActivityManager
	// model assigns (higher = killed sooner). Processes start at
	// OomNeverKill: only the framework volunteers its apps.
	OomAdj int

	Threads []*Thread

	kern    *Kernel
	nextTID int
	// memReleased marks a dead process whose resident pages have been
	// returned to the machine-wide budget.
	memReleased bool
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kern }

// MainThread returns the first thread, or nil before any thread is spawned.
func (p *Process) MainThread() *Thread {
	if len(p.Threads) == 0 {
		return nil
	}
	return p.Threads[0]
}

// LiveThreads counts threads that have not exited.
func (p *Process) LiveThreads() int {
	n := 0
	for _, t := range p.Threads {
		if t.State != StateExited {
			n++
		}
	}
	return n
}

// Thread is one simulated kernel-schedulable thread.
type Thread struct {
	TID  int
	Name string // instance name, e.g. "AsyncTask #2"
	// Group is the name Table I ranks by, e.g. "AsyncTask". Pool workers
	// share a group; singleton threads use their own name.
	Group string
	Proc  *Process
	State ThreadState

	// StatID is the interned stats thread ID for Group.
	StatID stats.ThreadID

	// Stack is the thread's stack VMA: the "stack" region for main
	// threads, an anonymous mmap for pthread-created ones (as on real
	// Gingerbread).
	Stack *mem.VMA

	ctx *cpu.Context
	// exec is the thread's machine handle, embedded by value so a spawn
	// performs one allocation for thread and handle together. The scheduler
	// flushes its batched stats deltas at every quantum end.
	exec Exec
	// body is the thread function; kept as a field so Start can launch the
	// package-level trampoline threadMain with the thread itself as argument
	// instead of allocating a capturing closure per spawn.
	body   func(ex *Exec)
	wakeAt sim.Ticks
	// waitingOn is the queue the thread is blocked on, for diagnostics.
	waitingOn *WaitQueue

	// sleepTimer is the thread's dedicated wakeup timer. A thread has at
	// most one sleep pending (it only runs again once the wakeup fires), so
	// the scheduler reuses this struct for every sleep instead of
	// allocating a timer plus closure per YieldSleep.
	sleepTimer sim.Timer
}

// String identifies the thread for diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("%s/%s (pid %d tid %d)", t.Proc.Name, t.Name, t.Proc.PID, t.TID)
}

// NewProcess creates a process with the canonical user address-space
// skeleton (app binary text, heap, stack, kernel region).
func (k *Kernel) NewProcess(name string, textSize, heapSize uint64) *Process {
	p := k.newBareProcess(name)
	p.Layout = mem.NewLayout(p.AS, textSize, heapSize)
	return p
}

// newBareProcess creates a process with an empty address space (kernel
// threads map only the kernel region).
func (k *Kernel) newBareProcess(name string) *Process {
	p := &Process{
		PID:    k.nextPID,
		Name:   name,
		AS:     mem.NewAddressSpace(k.Stats),
		StatID: k.Stats.Proc(name),
		RNG:    k.rng.Fork(),
		OomAdj: OomNeverKill,
		kern:   k,
	}
	p.AS.OnResident = k.addResidentPages
	k.nextPID++
	k.procs = append(k.procs, p)
	k.live = append(k.live, p)
	return p
}

// NewKernelProcess creates a kernel-thread process (swapper, ata_sff/0):
// only the kernel region is mapped and all execution is attributed to it.
func (k *Kernel) NewKernelProcess(name string) *Process {
	p := k.newBareProcess(name)
	kv, err := p.AS.Map(mem.KernelVA, mem.KernelLen, mem.RegionKernel,
		mem.PermRead|mem.PermWrite|mem.PermExec, mem.ClassKernel)
	if err != nil {
		panic(err)
	}
	p.Layout = &mem.Layout{Kernel: kv, NextLib: mem.MmapBase}
	return p
}

// Fork clones parent into a child process named name, copying the address
// space with zygote copy-on-write semantics (read-only and shared mappings
// alias the parent's memory). The child starts with no threads.
func (k *Kernel) Fork(parent *Process, name string) *Process {
	child := &Process{
		PID:    k.nextPID,
		Name:   name,
		AS:     parent.AS.Clone(),
		StatID: k.Stats.Proc(name),
		RNG:    k.rng.Fork(),
		OomAdj: OomNeverKill,
		kern:   k,
		Parent: parent,
	}
	child.AS.OnResident = k.addResidentPages
	k.addResidentPages(int64(child.AS.ResidentPages()))
	k.nextPID++
	child.Layout = &mem.Layout{
		Text:    child.AS.FindByName(mem.RegionAppBinary),
		Heap:    child.AS.FindByName(mem.RegionHeap),
		Stack:   child.AS.FindByName(mem.RegionStack),
		Kernel:  child.AS.FindByName(mem.RegionKernel),
		NextLib: parent.Layout.NextLib,
	}
	k.procs = append(k.procs, child)
	k.live = append(k.live, child)
	return child
}

// KillProcess forcibly terminates every live thread of p — the kernel side
// of Android's process teardown (ActivityManager killing a backgrounded or
// misbehaving app). Blocked, sleeping, and runnable threads unwind
// immediately; threads of other processes blocked on p's wait queues are
// never woken by it again (their wakers must handle the death, as the media
// server does for dead clients). The process object and its address space
// stay in the tables, so census counts — which track everything ever
// created, as the paper's do — are unaffected. Safe to call both from the
// host between Run calls and from a running simulated thread (as the
// scenario driver does); a process may not kill itself, and trying panics.
func (k *Kernel) KillProcess(p *Process) {
	for _, t := range p.Threads {
		// Only the thread on the CPU is StateRunning, so this is the caller.
		if t.State == StateRunning {
			panic(fmt.Sprintf("kernel: %v called KillProcess on its own process", t))
		}
	}
	for _, t := range p.Threads {
		if t.ctx == nil || t.ctx.Exited() {
			continue
		}
		t.ctx.Kill()
		t.State = StateExited
		k.reclaimCtx(t)
	}
	k.releaseProcessMemory(p)
}

// releaseProcessMemory returns a dead process's resident pages to the
// machine-wide budget, once, and drops the process from the live index. The
// address space stays inspectable but stops feeding the budget.
func (k *Kernel) releaseProcessMemory(p *Process) {
	if p.memReleased {
		return
	}
	p.memReleased = true
	p.AS.OnResident = nil
	k.addResidentPages(-int64(p.AS.ResidentPages()))
	// Order-preserving: selectVictim breaks ties toward the earliest-created
	// process.
	if i := slices.Index(k.live, p); i >= 0 {
		k.live = slices.Delete(k.live, i, i+1)
	}
}

// LiveProcessCount counts processes that still have at least one live
// thread (plus any that never spawned one).
func (k *Kernel) LiveProcessCount() int {
	n := 0
	for _, p := range k.procs {
		if len(p.Threads) == 0 || p.LiveThreads() > 0 {
			n++
		}
	}
	return n
}

// SpawnThread creates and starts a thread in p running body. The first
// thread of a process uses the main "stack" region; later threads get
// anonymous mmap stacks. group is the Table-I accounting name.
func (k *Kernel) SpawnThread(p *Process, name, group string, body func(ex *Exec)) *Thread {
	t := &Thread{
		TID:    k.nextTID,
		Name:   name,
		Group:  group,
		Proc:   p,
		State:  StateRunnable,
		StatID: k.Stats.Thread(group),
		ctx:    cpu.NewContext(),
	}
	t.sleepTimer.Target = t
	k.nextTID++
	p.nextTID++
	if len(p.Threads) == 0 && p.Layout != nil && p.Layout.Stack != nil {
		t.Stack = p.Layout.Stack
	} else if p.Layout != nil {
		t.Stack = p.Layout.MapAnon(p.AS, mem.ThreadStackSize)
	}
	p.Threads = append(p.Threads, t)
	k.threads = append(k.threads, t)
	ex := &t.exec
	ex.K = k
	ex.P = p
	ex.T = t
	ex.ctx = t.ctx
	ex.row = k.Stats.Row(p.StatID, t.StatID)
	ex.code = ex.codeBuf[:0]
	if p.Layout != nil && p.Layout.Kernel != nil {
		// The bottom of every code stack is the kernel region: a thread
		// with no user code region (kernel threads) fetches from it.
		ex.code = append(ex.code, p.Layout.Kernel)
	}
	t.body = body
	t.ctx.Start(threadMain, t)
	k.enqueue(t)
	return t
}

// threadMain is the body every simulated thread's coroutine runs. A shared
// trampoline taking the thread through Start's any-typed argument means a
// spawn allocates no per-thread closure (a *Thread in an interface is
// pointer-shaped and allocation-free).
func threadMain(arg any) {
	t := arg.(*Thread)
	t.body(&t.exec)
}

// TimerFired wakes the thread from a completed sleep; it makes Thread the
// closure-free Target of its own embedded sleep timer.
func (t *Thread) TimerFired(sim.Ticks) {
	t.Proc.kern.Wake(t)
}
