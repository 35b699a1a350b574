// Package cpu implements the execution engine of the reproduction: an
// atomic, in-order CPU model in the spirit of gem5's AtomicSimpleCPU as used
// by the paper ("we run gem5's atomic CPU model without caches to quickly
// generate these statistics"). Every operation retires in one tick; there is
// no cache or memory timing.
//
// Simulated threads are coroutines (iter.Pull) that the scheduler switches to
// directly: Run resumes a thread for one quantum and the thread switches back
// when it yields, so exactly one simulated thread runs at any moment. This
// makes whole-system runs bit-deterministic while letting workload models be
// written as plain straight-line Go code instead of resumable state machines.
package cpu

import (
	"fmt"
	"iter"
	"sync"

	"agave/internal/sim"
)

// Model describes the CPU configuration. The reproduction always uses the
// atomic model; the struct exists so benches and docs can name it.
type Model struct {
	Name       string
	ClockHz    uint64
	InstPerTik uint64
}

// Atomic is the paper's configuration: 1 GHz atomic CPU, no caches.
var Atomic = Model{Name: "atomic", ClockHz: 1e9, InstPerTik: 1}

// Reason says why a thread yielded back to the scheduler.
type Reason uint8

// Yield reasons.
const (
	// YieldQuantum: the granted quantum was exhausted; the thread is still
	// runnable.
	YieldQuantum Reason = iota
	// YieldBlocked: the thread blocked on a kernel object (futex, binder
	// reply, message queue, IO) and must be woken explicitly.
	YieldBlocked
	// YieldSleep: the thread sleeps until Yield.WakeAt.
	YieldSleep
	// YieldExit: the thread body returned (or was killed); it will never
	// run again.
	YieldExit
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case YieldQuantum:
		return "quantum"
	case YieldBlocked:
		return "blocked"
	case YieldSleep:
		return "sleep"
	case YieldExit:
		return "exit"
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// Yield is the report a thread hands the scheduler when it stops running.
type Yield struct {
	Used   sim.Ticks // ticks consumed since Run resumed the thread
	Reason Reason
	WakeAt sim.Ticks // valid for YieldSleep
}

// killed is the panic sentinel used to unwind a killed thread body.
type killed struct{}

// Context is one simulated thread's execution context. It owns one
// coroutine that runs thread bodies one after another: when a body returns
// or is killed, the coroutine parks until Release hands the context to
// NewContext and the next Start supplies another body.
type Context struct {
	next  func() (Yield, bool)
	yield func(Yield) bool // the coroutine's side of next

	body func(any)
	arg  any

	// thread-side state, written by Run before it resumes the body
	quantum sim.Ticks
	used    sim.Ticks
	kill    bool

	// scheduler-side state
	started bool
	ran     bool // the body has been resumed at least once
	exited  bool
	// dead marks a coroutine that ended because a body panicked (or called
	// runtime.Goexit); it can never run another body. A dead context is
	// also exited.
	dead bool
}

// free is the process-wide context pool. It outlives kernels, because every
// run boots a fresh kernel and a new coroutine costs about 14 allocations.
// It is not a sync.Pool: that drops entries at GC, and a dropped context's
// parked goroutine could never be collected. It needs no cap: it never holds
// more contexts than the most simulated threads ever live at once.
var free struct {
	sync.Mutex
	list []*Context
}

// NewContext returns a context ready for Start: a released one if the pool
// has any, else a new one.
func NewContext() *Context {
	free.Lock()
	if n := len(free.list); n > 0 {
		c := free.list[n-1]
		free.list[n-1] = nil
		free.list = free.list[:n-1]
		free.Unlock()
		return c
	}
	free.Unlock()
	c := &Context{}
	// The coroutine is never stopped: a pooled context parks it for reuse.
	c.next, _ = iter.Pull(c.loop)
	return c
}

// Release returns an exited context to the pool for a later NewContext. A
// dead context is dropped instead. Panics on a live context — pooling one
// would hand its coroutine to two threads at once.
func Release(c *Context) {
	if c.dead {
		return
	}
	if c.started && !c.exited {
		panic("cpu: release of live context")
	}
	c.body, c.arg = nil, nil
	c.started, c.ran, c.exited = false, false, false
	c.quantum, c.used = 0, 0
	free.Lock()
	free.list = append(free.list, c)
	free.Unlock()
}

// loop is the coroutine: it runs each started body and reports its exit.
// It returns only if a body panics or calls runtime.Goexit, and iter.Pull
// then re-raises either in whoever called next.
func (c *Context) loop(yield func(Yield) bool) {
	defer func() { c.dead, c.exited = true, true }()
	c.yield = yield
	for {
		c.runBody()
		if !yield(Yield{Used: c.used, Reason: YieldExit}) {
			return
		}
	}
}

// runBody runs the current body, absorbing the unwind of a kill.
func (c *Context) runBody() {
	c.ran = true
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	c.body(c.arg)
}

// Start sets body(arg) as the thread's code. The body does not run until
// the scheduler calls Run. When body returns (or the thread is killed) the
// context reports YieldExit.
//
// The explicit arg exists so hot spawn paths can pass a package-level
// function plus a pointer argument instead of allocating a capturing closure
// per thread; callers that don't care pass nil and ignore it.
func (c *Context) Start(body func(arg any), arg any) {
	if c.started {
		panic("cpu: context started twice")
	}
	c.started = true
	c.body, c.arg = body, arg
}

// Run resumes the thread for one quantum and returns when it yields. It
// must only be called by the scheduler, for a started, non-exited context.
// A panic in the body re-raises here, on the caller's goroutine, and leaves
// the context dead.
func (c *Context) Run(quantum sim.Ticks) Yield {
	if c.exited {
		if c.dead {
			panic("cpu: Run on dead context")
		}
		panic("cpu: Run on exited context")
	}
	c.quantum = quantum
	c.used = 0
	y, _ := c.next()
	if y.Reason == YieldExit {
		c.exited = true
	}
	return y
}

// Kill unwinds the thread body and retires the context. Safe to call on a
// blocked or sleeping thread; a no-op on an exited one. A body that never
// ran is retired without a switch. A killed body's deferred calls must not
// charge, block or sleep.
func (c *Context) Kill() {
	if c.exited {
		if c.dead {
			panic("cpu: Kill on dead context")
		}
		return
	}
	c.exited = true
	if !c.ran {
		return
	}
	c.kill = true
	c.next()
	c.kill = false
}

// Exited reports whether the thread will never run again.
func (c *Context) Exited() bool { return c.exited }

// --- thread-side API (call only from inside the body) ---

// Charge consumes n ticks of the current quantum. If the quantum is
// exhausted, the thread yields and resumes transparently on its next Run.
// Large charges are allowed to overrun the quantum (atomic ops are not
// preemptable mid-instruction); bulk helpers chunk their charges.
func (c *Context) Charge(n sim.Ticks) {
	c.used += n
	if c.used >= c.quantum {
		c.yieldWait(Yield{Used: c.used, Reason: YieldQuantum})
	}
}

// Used reports ticks consumed since Run resumed the thread.
func (c *Context) Used() sim.Ticks { return c.used }

// Left reports the ticks left in the current quantum, quantum − Used. It is
// positive whenever the body runs: a Charge that reaches the quantum's end
// yields before it returns.
func (c *Context) Left() sim.Ticks { return c.quantum - c.used }

// YieldNow ends the quantum early without consuming extra ticks; the thread
// stays runnable (sched_yield).
func (c *Context) YieldNow() {
	c.yieldWait(Yield{Used: c.used, Reason: YieldQuantum})
}

// Block yields with YieldBlocked and returns once the scheduler runs the
// thread again.
func (c *Context) Block() {
	c.yieldWait(Yield{Used: c.used, Reason: YieldBlocked})
}

// Sleep yields until the simulated clock reaches wakeAt.
func (c *Context) Sleep(wakeAt sim.Ticks) {
	c.yieldWait(Yield{Used: c.used, Reason: YieldSleep, WakeAt: wakeAt})
}

func (c *Context) yieldWait(y Yield) {
	c.yield(y)
	if c.kill {
		panic(killed{})
	}
}
