// Package android models the framework layer of the Gingerbread stack: the
// Looper/Handler message loop, the AsyncTask worker pool, zygote and its
// fork-based application spawning, the system_server and its services —
// including the InputDispatcher that routes injected touch/key events to
// the focused app's looper, the fault-injection plane (Injector) that
// drives binder failures, service crashes, and mediaserver restarts, and
// the AnrWatchdog that flags loopers blocked past the dispatch timeout —
// the launcher and systemui processes, the PackageManager install flow
// (with id.defcontainer and dexopt), the ActivityManager's
// oom_adj/onTrimMemory memory policy, and whole-system boot orchestration.
package android

import (
	"fmt"

	"agave/internal/kernel"
	"agave/internal/sim"
)

// Message is one unit of Looper work.
type Message struct {
	What int
	Arg  int64
	// Input carries the event payload of an msgInput message posted by
	// the InputDispatcher; the zero event for every other message.
	Input InputEvent
	// Posted is stamped by Post with the enqueue time; the AnrWatchdog
	// ages a looper's head message from it.
	Posted sim.Ticks
}

// Looper is a per-thread message queue, as every Android main thread owns.
// Messages travel through it by value.
type Looper struct {
	q *kernel.MsgQueue[Message]
}

// NewLooper prepares a looper backed by the kernel's mailbox primitive.
func NewLooper(k *kernel.Kernel, name string) *Looper {
	return &Looper{q: kernel.NewMsgQueue[Message](k, "looper."+name)}
}

// Post enqueues a message from the calling thread, stamping its enqueue
// time for the ANR watchdog.
func (l *Looper) Post(ex *kernel.Exec, m Message) {
	m.Posted = ex.Now()
	l.q.Send(ex, m)
}

// Oldest returns the head message without consuming it; ok is false when
// the queue is empty. The AnrWatchdog uses it to age pending work without
// stealing messages from the looper's own thread.
func (l *Looper) Oldest() (Message, bool) { return l.q.Peek() }

// TryDrain processes at most max pending messages without blocking.
func (l *Looper) TryDrain(ex *kernel.Exec, max int, dispatch func(ex *kernel.Exec, m Message)) int {
	n := 0
	for n < max {
		m, ok := l.q.TryRecv()
		if !ok {
			return n
		}
		dispatch(ex, m)
		n++
	}
	return n
}

// AsyncPool is the framework's AsyncTask executor: a fixed pool of worker
// threads named "AsyncTask #N" (they account to the "AsyncTask" group that
// Table I ranks at 7.6 % of suite references).
type AsyncPool struct {
	q *kernel.MsgQueue[func(*kernel.Exec)]
}

// asyncTaskNames covers the framework's fixed pool size, so spawning a pool
// formats no thread names; Sprintf only runs for oversized test pools.
var asyncTaskNames = [...]string{
	"AsyncTask #1", "AsyncTask #2", "AsyncTask #3", "AsyncTask #4",
	"AsyncTask #5", "AsyncTask #6", "AsyncTask #7", "AsyncTask #8",
}

func asyncTaskName(i int) string {
	if i < len(asyncTaskNames) {
		return asyncTaskNames[i]
	}
	return fmt.Sprintf("AsyncTask #%d", i+1)
}

// NewAsyncPool spawns n workers in proc.
func NewAsyncPool(proc *kernel.Process, n int) *AsyncPool {
	k := proc.Kernel()
	p := &AsyncPool{q: kernel.NewMsgQueue[func(*kernel.Exec)](k, proc.Name+".asynctask")}
	for i := 0; i < n; i++ {
		name := asyncTaskName(i)
		k.SpawnThread(proc, name, "AsyncTask", func(ex *kernel.Exec) {
			for {
				task := p.q.Recv(ex)
				task(ex)
			}
		})
	}
	return p
}

// Submit queues task for execution on some pool worker.
func (p *AsyncPool) Submit(ex *kernel.Exec, task func(ex *kernel.Exec)) {
	p.q.Send(ex, task)
}

// heartbeat runs a native daemon's periodic activity: a small burst of
// work every interval. It is how init, rild, vold, netd and friends earn
// their (tiny) slice of the paper's "other (51 items)" process category.
func heartbeat(proc *kernel.Process, interval sim.Ticks, burst uint64) {
	proc.Kernel().SpawnThread(proc, proc.Name, proc.Name, func(ex *kernel.Exec) {
		ex.PushCode(proc.Layout.Text)
		for {
			ex.Fetch(burst)
			ex.Read(proc.Layout.Heap, burst/4)
			ex.Write(proc.Layout.Heap, burst/8)
			ex.Syscall(burst/8, burst/16)
			ex.SleepFor(interval)
		}
	})
}
