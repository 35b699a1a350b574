package kernel

// ring is the kernel's one FIFO, a head-indexed slice; run queues, wait
// queues and mailboxes all hold one. pop zeroes the slot it vacates, so
// nothing dequeued stays reachable through the backing array, and push
// moves the live tail to the front when the array is full and slack sits
// ahead of the head. Popping by slicing the head off instead would walk
// the slice base forward and force append to reallocate on nearly every
// push.
type ring[T any] struct {
	buf  []T
	head int
}

func (r *ring[T]) push(v T) {
	if r.head > 0 && len(r.buf) == cap(r.buf) {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		r.head = 0
	}
	r.buf = append(r.buf, v)
}

func (r *ring[T]) pop() (v T, ok bool) {
	if r.head == len(r.buf) {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
	return v, true
}

func (r *ring[T]) peek() (v T, ok bool) {
	if r.head == len(r.buf) {
		return v, false
	}
	return r.buf[r.head], true
}

func (r *ring[T]) len() int { return len(r.buf) - r.head }

// WaitQueue is the kernel's block/wake primitive (the moral equivalent of a
// futex wait queue). Because exactly one simulated thread runs at a time,
// the check-then-wait pattern
//
//	for !cond() {
//	    ex.Wait(wq)
//	}
//
// is free of lost wakeups by construction.
type WaitQueue struct {
	k       *Kernel
	Name    string
	waiters ring[*Thread]
}

// NewWaitQueue returns an empty queue. The name is for diagnostics only.
// Queues come out of a per-kernel slab (see Kernel.wqSlab).
func (k *Kernel) NewWaitQueue(name string) *WaitQueue {
	if len(k.wqSlab) == 0 {
		k.wqSlab = make([]WaitQueue, 16)
	}
	wq := &k.wqSlab[0]
	k.wqSlab = k.wqSlab[1:]
	wq.k = k
	wq.Name = name
	return wq
}

// InitWaitQueue readies a caller-embedded WaitQueue value, preserving any
// waiter backing array an earlier use left behind. Structures that live
// per-transaction (the binder reply queue) embed the queue by value and
// re-init it on reuse instead of allocating a fresh one per call.
func (k *Kernel) InitWaitQueue(wq *WaitQueue, name string) {
	wq.k = k
	wq.Name = name
	wq.waiters = ring[*Thread]{buf: wq.waiters.buf[:0]}
}

// Wait blocks the calling thread on wq until another thread wakes it. The
// futex-syscall cost is charged on entry.
func (ex *Exec) Wait(wq *WaitQueue) {
	ex.Syscall(180, 30)
	wq.waiters.push(ex.T)
	ex.ctx.Block()
}

// WaitFree blocks without charging a syscall (for callers that already
// accounted the kernel entry themselves).
func (ex *Exec) WaitFree(wq *WaitQueue) {
	wq.waiters.push(ex.T)
	ex.ctx.Block()
}

// WakeOne wakes the longest-waiting thread; it reports whether anything was
// woken.
func (wq *WaitQueue) WakeOne() bool {
	for {
		t, ok := wq.waiters.pop()
		if !ok {
			return false
		}
		if t.State == StateBlocked {
			wq.k.Wake(t)
			return true
		}
	}
}

// WakeAll wakes every waiter, returning the count woken.
func (wq *WaitQueue) WakeAll() int {
	n := 0
	for wq.WakeOne() {
		n++
	}
	return n
}

// Waiters reports the number of threads currently parked on wq.
func (wq *WaitQueue) Waiters() int { return wq.waiters.len() }

// MsgQueue is a deterministic FIFO mailbox of T values: Looper message
// queues, input dispatch, AsyncTask work, Binder transaction queues, the
// Dalvik GC and JIT requests, the storage request queue and the
// lowmemorykiller's death announcements. Messages are held by value, so a
// non-pointer message costs no allocation to send.
type MsgQueue[T any] struct {
	Name string
	// notEmpty is embedded by value: a mailbox and its wait queue have
	// identical lifetimes, so splitting them across two allocations only
	// added per-queue cost (every process spawn creates several).
	notEmpty WaitQueue
	msgs     ring[T]
}

// NewMsgQueue returns an empty unbounded mailbox. The embedded wait queue
// shares the mailbox name rather than minting a suffixed copy per queue.
func NewMsgQueue[T any](k *Kernel, name string) *MsgQueue[T] {
	q := &MsgQueue[T]{Name: name}
	q.notEmpty.k = k
	q.notEmpty.Name = name
	return q
}

// Send enqueues m from the calling thread and wakes one receiver. Sending
// charges a small kernel cost (the futex wake).
func (q *MsgQueue[T]) Send(ex *Exec, m T) {
	ex.Syscall(140, 24)
	q.msgs.push(m)
	q.notEmpty.WakeOne()
}

// Recv dequeues the oldest message, blocking the calling thread while the
// queue is empty.
func (q *MsgQueue[T]) Recv(ex *Exec) T {
	for q.msgs.len() == 0 {
		ex.Wait(&q.notEmpty)
	}
	m, _ := q.msgs.pop()
	return m
}

// TryRecv dequeues without blocking; ok is false when the queue is empty.
func (q *MsgQueue[T]) TryRecv() (m T, ok bool) { return q.msgs.pop() }

// Peek returns the oldest queued message without dequeuing it; ok is false
// when the queue is empty. The ANR watchdog uses it to age a looper's head
// message without stealing work from the looper's own thread.
func (q *MsgQueue[T]) Peek() (m T, ok bool) { return q.msgs.peek() }

// Len reports queued message count.
func (q *MsgQueue[T]) Len() int { return q.msgs.len() }
