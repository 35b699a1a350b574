package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %d, want 0", c.Now())
	}
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != 5*Millisecond {
		t.Fatalf("Now = %d, want %d", got, 5*Millisecond)
	}
	c.Set(7 * Millisecond)
	if got := c.Now(); got != 7*Millisecond {
		t.Fatalf("Now = %d, want %d", got, 7*Millisecond)
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set to the past did not panic")
		}
	}()
	var c Clock
	c.Advance(10)
	c.Set(5)
}

func TestTickUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond || Microsecond != 1000*Nanosecond {
		t.Fatal("tick unit ratios are wrong")
	}
}

// fireFunc is a TimerTarget that calls itself.
type fireFunc func(now Ticks)

func (f fireFunc) TimerFired(now Ticks) { f(now) }

// schedule arms a fresh timer for when that calls fire.
func schedule(q *TimerQueue, when Ticks, fire func(now Ticks)) {
	q.ScheduleTimer(&Timer{When: when, Target: fireFunc(fire)})
}

func TestTimerQueueOrder(t *testing.T) {
	var q TimerQueue
	var fired []int
	schedule(&q, 30, func(Ticks) { fired = append(fired, 3) })
	schedule(&q, 10, func(Ticks) { fired = append(fired, 1) })
	schedule(&q, 20, func(Ticks) { fired = append(fired, 2) })
	if n := q.FireDue(25); n != 2 {
		t.Fatalf("FireDue(25) fired %d, want 2", n)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired order %v, want [1 2]", fired)
	}
	q.FireDue(100)
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", fired)
	}
}

func TestTimerQueueTieBreakIsFIFO(t *testing.T) {
	var q TimerQueue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(&q, 5, func(Ticks) { fired = append(fired, i) })
	}
	q.FireDue(5)
	for i, v := range fired {
		if v != i {
			t.Fatalf("tie-broken order %v not FIFO", fired)
		}
	}
}

func TestTimerRescheduleDuringFire(t *testing.T) {
	var q TimerQueue
	count := 0
	var fire func(Ticks)
	fire = func(now Ticks) {
		count++
		if count < 3 {
			schedule(&q, now, fire) // already due: fires in the same call
		}
	}
	schedule(&q, 1, fire)
	if n := q.FireDue(1); n != 3 {
		t.Fatalf("FireDue fired %d, want 3 (chained)", n)
	}
}

func TestNextDeadline(t *testing.T) {
	var q TimerQueue
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("empty queue reported a deadline")
	}
	schedule(&q, 42, func(Ticks) {})
	if when, ok := q.NextDeadline(); !ok || when != 42 {
		t.Fatalf("NextDeadline = %d,%v want 42,true", when, ok)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(7).Uint64() == NewRNG(8).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed degenerated")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGRangeProperty(t *testing.T) {
	r := NewRNG(11)
	f := func(lo int8, span uint8) bool {
		l, h := int(lo), int(lo)+int(span)
		v := r.Range(l, h)
		return v >= l && v <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}
