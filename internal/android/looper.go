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
	// the InputDispatcher; nil for every other message.
	Input *InputEvent
	// Posted is stamped by Post with the enqueue time; the AnrWatchdog
	// ages a looper's head message from it.
	Posted sim.Ticks
}

// Looper is a per-thread message queue, as every Android main thread owns.
//
// Queued messages are pooled: Post copies the caller's Message value into a
// recycled *Message (pointer-shaped sends avoid the interface boxing
// allocation), and every consumer copies it back out and releases the
// struct before dispatching. The free list needs no locking because exactly
// one simulated thread of a kernel runs at a time, and a looper never
// crosses kernels.
type Looper struct {
	q    *kernel.MsgQueue
	free []*Message
}

// NewLooper prepares a looper backed by the kernel's mailbox primitive.
func NewLooper(k *kernel.Kernel, name string) *Looper {
	return &Looper{q: k.NewMsgQueue("looper." + name)}
}

func (l *Looper) getMsg() *Message {
	if n := len(l.free); n > 0 {
		m := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return m
	}
	return &Message{}
}

// putMsg returns a consumed message to the pool. Reset invariant: the struct
// is zeroed here, so a recycled message can never leak a previous payload
// (Input pointers, stale Posted stamps) into its next use even if a future
// Post forgets a field.
func (l *Looper) putMsg(m *Message) {
	*m = Message{}
	l.free = append(l.free, m)
}

// Post enqueues a message from the calling thread, stamping its enqueue
// time for the ANR watchdog.
func (l *Looper) Post(ex *kernel.Exec, m Message) {
	mp := l.getMsg()
	*mp = m
	mp.Posted = ex.Now()
	ex.Send(l.q, mp)
}

// Oldest returns the head message without consuming it; ok is false when
// the queue is empty. The AnrWatchdog uses it to age pending work without
// stealing messages from the looper's own thread.
func (l *Looper) Oldest() (Message, bool) {
	raw, ok := l.q.Peek()
	if !ok {
		return Message{}, false
	}
	return *raw.(*Message), true
}

// recv blocks for the next message, copies it out, and recycles the pooled
// struct before the caller acts on the copy.
func (l *Looper) recv(ex *kernel.Exec) Message {
	mp := ex.Recv(l.q).(*Message)
	m := *mp
	l.putMsg(mp)
	return m
}

// TryDrain processes at most max pending messages without blocking.
func (l *Looper) TryDrain(ex *kernel.Exec, max int, dispatch func(ex *kernel.Exec, m Message)) int {
	n := 0
	for n < max {
		raw, ok := l.q.TryRecv()
		if !ok {
			return n
		}
		m := *raw.(*Message)
		l.putMsg(raw.(*Message))
		dispatch(ex, m)
		n++
	}
	return n
}

// AsyncPool is the framework's AsyncTask executor: a fixed pool of worker
// threads named "AsyncTask #N" (they account to the "AsyncTask" group that
// Table I ranks at 7.6 % of suite references).
type AsyncPool struct {
	q *kernel.MsgQueue
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
	p := &AsyncPool{q: k.NewMsgQueue(proc.Name + ".asynctask")}
	for i := 0; i < n; i++ {
		name := asyncTaskName(i)
		k.SpawnThread(proc, name, "AsyncTask", func(ex *kernel.Exec) {
			for {
				task := ex.Recv(p.q).(func(ex *kernel.Exec))
				task(ex)
			}
		})
	}
	return p
}

// Submit queues task for execution on some pool worker.
func (p *AsyncPool) Submit(ex *kernel.Exec, task func(ex *kernel.Exec)) {
	ex.Send(p.q, task)
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
