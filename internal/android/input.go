package android

import (
	"sort"

	"agave/internal/kernel"
	"agave/internal/sim"
)

// The input-event pipeline. Real Android delivers every touch and key through
// one chokepoint: events enter the kernel, the InputDispatcher thread in
// system_server resolves the focused window, and the winning app's main
// thread drains its input channel interleaved with lifecycle messages and
// frame production. This file models that chokepoint: a ScenarioDriver (or
// any caller) injects synthetic events with Inject*, the InputDispatcher
// thread routes each one to the current foreground app's looper, and the
// app's main thread performs the handler work at its next PausePoint. Events
// aimed at a dead, paused, or unfocused app are dropped — and counted, per
// target, alongside end-to-end dispatch-latency statistics for the events
// that did land.

// InputKind is one synthetic input sample's type.
type InputKind uint8

// Input sample kinds. A scenario Tap expands to a down/up pair, a Swipe to a
// down, several moves, and an up; a Key is a single press.
const (
	TouchDown InputKind = iota
	TouchMove
	TouchUp
	KeyPress
)

// String names the sample kind for diagnostics.
func (k InputKind) String() string {
	switch k {
	case TouchDown:
		return "touch-down"
	case TouchMove:
		return "touch-move"
	case TouchUp:
		return "touch-up"
	case KeyPress:
		return "key-press"
	}
	return "input?"
}

// InputEvent is one synthetic input sample in flight through the pipeline.
type InputEvent struct {
	// Kind is the sample type.
	Kind InputKind
	// Target names the app (by label) the gesture aims at; delivery
	// additionally requires the target to hold the focus.
	Target string
	// Posted is the injection time; end-to-end dispatch latency is
	// measured from here to the app-side handler.
	Posted sim.Ticks
}

// InputAppStats is the per-target outcome of a run's input traffic.
type InputAppStats struct {
	// App is the target label events were injected for.
	App string
	// Injected counts events aimed at the app.
	Injected int
	// Dispatched counts events the app's main thread actually handled.
	Dispatched int
	// Dropped is Injected - Dispatched: events refused at routing time
	// (target dead, paused, or not focused), consumed unhandled by a
	// paused activity, or still in flight when the measurement ended.
	Dropped int
	// LatencyMax and LatencySum aggregate end-to-end dispatch latency
	// (injection to handler start) over the Dispatched events, in ticks.
	LatencyMax, LatencySum sim.Ticks
	// ANRs counts Application Not Responding flags the watchdog raised
	// against the app: episodes where its main looper sat blocked past the
	// dispatch timeout with this app's traffic (input included) pending.
	ANRs int
}

// InputDispatcher is system_server's input pipeline state: the event queue
// its dispatcher thread drains, and the per-target accounting. Events travel
// by value, from the queue to the app's looper to its handler.
type InputDispatcher struct {
	sys *System
	q   *kernel.MsgQueue[InputEvent]

	// chans holds each target's counters; Dropped is derived when
	// InputStats reports them.
	chans map[string]*InputAppStats
}

func newInputDispatcher(sys *System) *InputDispatcher {
	return &InputDispatcher{
		sys:   sys,
		q:     kernel.NewMsgQueue[InputEvent](sys.K, "input.dispatch"),
		chans: make(map[string]*InputAppStats),
	}
}

// channel returns (creating on first use) the target's counter record.
func (d *InputDispatcher) channel(target string) *InputAppStats {
	c, ok := d.chans[target]
	if !ok {
		c = &InputAppStats{App: target}
		d.chans[target] = c
	}
	return c
}

// inject queues one gesture's samples for the dispatcher thread. The send
// cost (the write into the input channel) charges to the calling thread, as
// the event-hub write does on a real device.
func (d *InputDispatcher) inject(ex *kernel.Exec, target string, kinds ...InputKind) {
	c := d.channel(target)
	for _, k := range kinds {
		c.Injected++
		d.q.Send(ex, InputEvent{Kind: k, Target: target, Posted: ex.Now()})
	}
}

// InjectTap queues a touch tap (down/up pair) aimed at the labelled app.
func (sys *System) InjectTap(ex *kernel.Exec, target string) {
	sys.Input.inject(ex, target, TouchDown, TouchUp)
}

// InjectKey queues a single key press aimed at the labelled app.
func (sys *System) InjectKey(ex *kernel.Exec, target string) {
	sys.Input.inject(ex, target, KeyPress)
}

// InjectSwipe queues a swipe gesture — a down, three move samples, and an
// up — aimed at the labelled app.
func (sys *System) InjectSwipe(ex *kernel.Exec, target string) {
	sys.Input.inject(ex, target, TouchDown, TouchMove, TouchMove, TouchMove, TouchUp)
}

// route is the dispatcher thread's focus decision for one event: deliver to
// the target's looper only if the target is alive, unpaused, and holds the
// foreground focus. Everything else is dropped here — posting input to a
// backgrounded or dying process is exactly how a real dispatcher produces
// "dropped event" logs rather than crashes.
func (d *InputDispatcher) route(ex *kernel.Exec, ev InputEvent) {
	a := d.sys.appByLabel(ev.Target)
	if a == nil || a.Dead || a.Paused() || d.sys.amForeground != a {
		// Never delivered: counted as dropped at collection.
		return
	}
	a.Looper.Post(ex, Message{What: msgInput, Input: ev})
}

// noteDelivered records a handled event and its end-to-end latency. It runs
// on the receiving app's main thread, at handler start.
func (d *InputDispatcher) noteDelivered(target string, lat sim.Ticks) {
	c := d.channel(target)
	if lat > c.LatencyMax {
		c.LatencyMax = lat
	}
	c.LatencySum += lat
	c.Dispatched++
}

// noteANR records a watchdog Application Not Responding flag against the
// labelled app, alongside its input-latency statistics: an ANR is the
// pathological tail of the same dispatch pipeline.
func (d *InputDispatcher) noteANR(target string) {
	d.channel(target).ANRs++
}

// InputStats reports the per-target input outcome, sorted by target name.
// Dropped covers every injected event that was never handled: refused at
// routing, consumed unhandled while the target was paused, or still queued
// when the machine stopped.
func (sys *System) InputStats() []InputAppStats {
	d := sys.Input
	names := make([]string, 0, len(d.chans))
	for n := range d.chans {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]InputAppStats, 0, len(names))
	for _, n := range names {
		c := *d.chans[n]
		c.Dropped = c.Injected - c.Dispatched
		out = append(out, c)
	}
	return out
}

// appByLabel resolves a target label to the most recently created live app
// under that label (relaunches reuse names; the newest incarnation owns the
// label, exactly as the newest process owns a package name on a device).
func (sys *System) appByLabel(label string) *App {
	for i := len(sys.amApps) - 1; i >= 0; i-- {
		if a := sys.amApps[i]; a.Cfg.Label == label && !a.Dead {
			return a
		}
	}
	return nil
}

// performInput is the app half of a delivery: record the end-to-end latency,
// charge the view-hierarchy dispatch that precedes any listener, then run
// the workload's input handler (which does the app-specific work — dalvik
// allocations, surface invalidations, media seeks).
func (a *App) performInput(ex *kernel.Exec, ev InputEvent) {
	a.Sys.Input.noteDelivered(ev.Target, ex.Now()-ev.Posted)
	a.VM.InterpBulk(ex, a.frameworkDexFor(ex), 1400, false)
	if a.OnInput != nil {
		a.OnInput(ex, a, ev)
	}
}
