package core

import (
	"fmt"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/scenario"
	"agave/internal/sim"
)

// Session is the session-level outcome of a multi-app scenario run: the
// scenario that ran, plus what the run measured beyond the census every
// Result carries.
type Session struct {
	// Scenario is the definition that ran: its name, provenance (see
	// scenario.Scenario.Source), app roster and timeline, so reports can
	// resolve per-app attribution without re-looking the scenario up in
	// any registry.
	Scenario *scenario.Scenario

	// LMKKills counts processes the lowmemorykiller killed; LMKVictims
	// names them in kill order. Both are zero/empty when the session
	// never came under enough pressure.
	LMKKills   int
	LMKVictims []string
	// Trims counts onTrimMemory callbacks the ActivityManager delivered.
	Trims int

	// InputEvents counts the synthetic input samples the timeline
	// injected (a Tap is a down/up pair, a Swipe a five-sample gesture,
	// a Key one press); InputDispatched counts the samples an app's main
	// thread actually handled, and InputDropped the rest — refused by
	// the InputDispatcher (target dead, paused, or unfocused), consumed
	// unhandled by a paused activity, or still in flight when the
	// measurement ended. InputEvents == InputDispatched + InputDropped.
	InputEvents     int
	InputDispatched int
	InputDropped    int
	// InputApps is the per-target input outcome, sorted by app name;
	// empty when the timeline injected no input.
	InputApps []android.InputAppStats

	// The dependability section. FaultsInjected counts fault events that
	// actually fired (a fault at a runtime-dead target drops and counts
	// nothing); FaultsDetected counts injected failures some framework or
	// app code observed and survived via its error path; FaultsRecovered
	// counts completed recovery actions — crashed services relaunched,
	// mediaserver restarts, and player sessions re-established across
	// them. ANRs counts Application Not Responding episodes the watchdog
	// flagged (per-app counts ride on InputApps).
	FaultsInjected  int
	FaultsDetected  int
	FaultsRecovered int
	ANRs            int
}

// driver is the running session state: the scenario's apps by name and the
// current foreground app. It lives on the ScenarioDriver thread — the
// simulated counterpart of the `am` tooling scripted sessions use on real
// devices — so every transition is charged inside system_server at a
// deterministic simulated time.
type driver struct {
	sys        *android.System
	cfg        Config
	byName     map[string]*apps.Workload
	live       map[string]*android.App
	foreground string
	// scriptDone flips once every timeline event has been applied; the
	// engine steps the machine until it is set.
	scriptDone bool
}

// RunScenarioDef is the session engine. It executes a scenario definition —
// bundled, decoded from a scenario file, or generated — the way single-app
// runs are measured: boot, warm up, reset the counters, then drive the
// timeline across cfg.Duration while every live app runs its workload and
// every reference is attributed per process. The definition is validated
// before anything boots, so an ill-formed ad-hoc scenario fails cleanly.
func RunScenarioDef(sc *scenario.Scenario, cfg Config) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("scenario %s: non-positive duration", sc.Name)
	}
	d := &driver{
		cfg:    cfg,
		byName: make(map[string]*apps.Workload, len(sc.Apps)),
		live:   make(map[string]*android.App, len(sc.Apps)),
	}
	for _, a := range sc.Apps {
		w, err := apps.ByName(a.Workload)
		if err != nil {
			return nil, err // unreachable after Validate
		}
		d.byName[a.Name] = w
	}

	// Scenario machines always run the memory-pressure model on the 1 GB
	// device: backgrounded apps can die because the system is out of
	// memory, not only because the timeline says so.
	k := kernel.New(kernel.Config{
		Quantum:  cfg.Quantum,
		MemPages: kernel.DefaultMemPages,
		MinFree:  kernel.DefaultMinFree(cfg.MinFreePages),
	})
	defer k.Shutdown()
	sys := android.Boot(k)
	sys.Compositor.DirtyRectOnly = cfg.DirtyRectComposition
	d.sys = sys

	// Warmup covers the system boot transient only: no scenario app exists
	// yet, because launches are part of the measured session.
	k.Run(cfg.Warmup)
	k.Stats.Reset()

	// The driver thread scripts the session from inside the simulation:
	// it sleeps to each event's deadline and applies the transition, so
	// event timing, cost, and attribution (to system_server, like the real
	// ActivityManager's) are deterministic parts of the measurement.
	start := k.Clock.Now()
	k.SpawnThread(sys.SystemServer, "ScenarioDriver", "ScenarioDriver", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		for _, ev := range sc.Timeline {
			ex.SleepUntil(eventTime(ev, start, cfg.Duration))
			d.apply(ex, ev)
		}
		d.scriptDone = true
		// Script exhausted: park until the run ends.
		ex.Wait(k.NewWaitQueue("scenario.done"))
	})
	k.Run(cfg.Warmup + cfg.Duration)
	// A scheduler quantum can overshoot the deadline past the timers of
	// events scripted at the very end of the interval (At near 1000).
	// Step the machine forward until the whole script has executed, so
	// every validated event is applied.
	for !d.scriptDone {
		k.Run(k.Clock.Now() + 1)
	}

	res := collect(sc.Name, false, k, cfg, 0)
	s := &Session{
		Scenario:   sc,
		LMKKills:   k.LMKKills(),
		LMKVictims: append([]string(nil), k.LMKVictims()...),
		Trims:      sys.Trims(),
		InputApps:  sys.InputStats(),
	}
	for _, st := range s.InputApps {
		s.InputEvents += st.Injected
		s.InputDispatched += st.Dispatched
		s.InputDropped += st.Dropped
	}
	s.FaultsInjected, s.FaultsDetected, s.FaultsRecovered, s.ANRs = sys.Inject.Counts()
	res.Session = s
	return res, nil
}

// eventTime resolves an event's position to an absolute simulated time
// within a measured interval beginning at start and lasting duration. The
// interval is half-open — the machine stops the instant the clock reaches
// start+duration — so At=1000 is clamped to the final measured tick; without
// the clamp an end-of-interval event would land one tick past the last
// measured one and its effects would fall outside the measurement. Events
// close to the end may still land beyond the scheduling horizon (a quantum
// can overshoot the deadline); the engine keeps stepping the machine until
// the script has fully executed, so they are applied, never dropped.
func eventTime(e scenario.Event, start, duration sim.Ticks) sim.Ticks {
	t := start + duration*sim.Ticks(e.At)/1000
	if end := start + duration; t >= end {
		t = end - 1
	}
	return t
}

// launch starts the named scenario app. The trace-JIT ablation is applied
// here, before the app's threads first run, as RunAgave applies it to its
// one app.
func (d *driver) launch(name string) *android.App {
	a := apps.LaunchAs(d.sys, d.byName[name], name)
	if d.cfg.DisableJIT {
		a.VM.JITEnabled = false
	}
	return a
}

// apply performs one validated timeline event on the driver thread.
func (d *driver) apply(ex *kernel.Exec, ev scenario.Event) {
	sys := d.sys
	switch ev.Kind {
	case scenario.Launch:
		d.live[ev.App] = d.launch(ev.App)
		if !d.byName[ev.App].Background {
			// The launched activity takes the foreground; whoever held
			// it is paused, exactly as a real launch backgrounds the
			// previous task.
			d.pauseForeground(ex, ev.App)
			d.foreground = ev.App
		}
	case scenario.SwitchTo:
		if d.foreground == ev.App {
			return
		}
		d.pauseForeground(ex, ev.App)
		sys.ResumeApp(ex, d.live[ev.App])
		d.foreground = ev.App
	case scenario.Background:
		sys.PauseApp(ex, d.live[ev.App])
		if d.foreground == ev.App {
			d.foreground = ""
		}
	case scenario.Kill:
		sys.KillApp(ex, d.live[ev.App])
		delete(d.live, ev.App)
		if d.foreground == ev.App {
			d.foreground = ""
		}
	case scenario.Tap:
		sys.InjectTap(ex, ev.App)
	case scenario.Key:
		sys.InjectKey(ex, ev.App)
	case scenario.Swipe:
		sys.InjectSwipe(ex, ev.App)
	case scenario.Idle:
		// A deliberate gap: the system runs undisturbed.
	case scenario.Pressure:
		// External memory demand: the allocation syscall cost charges to
		// the driver; whether anything dies is the lowmemorykiller's call.
		ex.Syscall(800, 200)
		sys.K.Balloon(ev.Pages)
	case scenario.FaultBinder:
		// A target that died at run time (the lowmemorykiller got it) drops
		// the fault without effect — the runtime counterpart of the
		// validator's liveness rule.
		sys.InjectBinderFault(ex, ev.App)
	case scenario.CorruptParcel:
		sys.InjectCorruptParcel(ex, ev.App)
	case scenario.CrashService:
		d.crashService(ex, ev)
	case scenario.KillMediaserver:
		sys.CrashMediaserver(ex)
	}
}

// crashService kills the target as a native crash would and performs the
// ActivityManager's system-restart recovery: the process comes straight
// back under the same name. The script considers the app continuously live
// — later events target the restarted incarnation. A runtime-dead target
// drops the fault.
func (d *driver) crashService(ex *kernel.Exec, ev scenario.Event) {
	sys := d.sys
	a, ok := d.live[ev.App]
	if !ok || a.Dead {
		return
	}
	wasFg := d.foreground == ev.App
	prevFg := d.foreground
	sys.CrashApp(ex, a)
	delete(d.live, ev.App)
	if wasFg {
		d.foreground = ""
	}
	restarted := d.launch(ev.App)
	d.live[ev.App] = restarted
	sys.Inject.NoteRecovered()
	if d.byName[ev.App].Background {
		return
	}
	if wasFg {
		// The crashed activity held the screen; its restart takes it back.
		d.foreground = ev.App
		return
	}
	// It was behind another app: the restart happens in the background and
	// the previous foreground app keeps (formally, retakes) its slot.
	sys.PauseApp(ex, restarted)
	if prevFg != "" {
		if p, ok := d.live[prevFg]; ok && !p.Dead {
			sys.ResumeApp(ex, p)
		}
	}
}

// pauseForeground pauses the current foreground app, if any, unless it is
// the app about to take over.
func (d *driver) pauseForeground(ex *kernel.Exec, next string) {
	if d.foreground == "" || d.foreground == next {
		return
	}
	if a, ok := d.live[d.foreground]; ok {
		d.sys.PauseApp(ex, a)
	}
	d.foreground = ""
}
