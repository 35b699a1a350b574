package sim

import "container/heap"

// Timer is a pending wakeup registered with a TimerQueue. Its owner embeds
// it (the scheduler's per-thread sleep timer) and sets Target once, so
// arming the timer never allocates.
type Timer struct {
	// When is the deadline in simulated ticks.
	When Ticks
	// Target receives the firing.
	Target TimerTarget

	seq uint64
}

// TimerTarget receives a Timer's firing. TimerFired runs on the simulation
// loop; it must not block.
type TimerTarget interface {
	TimerFired(now Ticks)
}

// TimerQueue is a deterministic priority queue of timers. Ties on deadline
// fire in registration order, which keeps runs reproducible.
type TimerQueue struct {
	h   timerHeap
	seq uint64
}

// ScheduleTimer enqueues a caller-owned timer whose When and Target fields
// are already set. The caller must not touch t again until it has fired.
func (q *TimerQueue) ScheduleTimer(t *Timer) {
	t.seq = q.seq
	q.seq++
	heap.Push(&q.h, t)
}

// NextDeadline reports the earliest pending deadline. ok is false when the
// queue is empty.
func (q *TimerQueue) NextDeadline() (when Ticks, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].When, true
}

// FireDue pops and fires every timer with deadline ≤ now, in deadline order.
// It returns the number of timers fired. Targets may schedule new timers;
// newly scheduled timers that are already due fire in the same call.
func (q *TimerQueue) FireDue(now Ticks) int {
	n := 0
	for len(q.h) > 0 && q.h[0].When <= now {
		heap.Pop(&q.h).(*Timer).Target.TimerFired(now)
		n++
	}
	return n
}

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*Timer)) }

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
