package android

import (
	"math"

	"agave/internal/kernel"
)

// Lifecycle message codes posted to an app's main looper. They mirror the
// ActivityThread.H handler constants: the ActivityManager decides a
// transition, the app's main thread performs it when it next drains its
// looper.
const (
	msgPause  = 101
	msgResume = 102
	// msgTrim is an onTrimMemory callback; Arg carries the severity level.
	// Unlike pause/resume it is handled even while the activity is parked
	// in its looper — cached apps are exactly the ones asked to shrink.
	msgTrim = 103
	// msgInput is an input event from the InputDispatcher; Input carries
	// the payload. It is handled only by a resumed activity — a paused
	// one consumes it unhandled (stale UI traffic), which the dispatcher's
	// accounting reports as a dropped event.
	msgInput = 104
)

// PausePoint is the main thread's lifecycle gate: workload bodies reach it
// once per UI iteration (FrameLoop and the apps package's uiPump call it
// automatically). It drains pending lifecycle messages without blocking; on
// a pause message the thread performs onPause, hides its surface, and parks
// in the looper until the resume message arrives — the ActivityThread flow,
// so a backgrounded app stops drawing and composing while its worker
// threads, AsyncTasks, and media sessions keep running.
func (a *App) PausePoint(ex *kernel.Exec) {
	a.Looper.TryDrain(ex, math.MaxInt, a.dispatchLifecycle)
}

// Paused reports whether the app's main thread is parked in its lifecycle
// looper (it has processed a pause and not yet a resume).
func (a *App) Paused() bool { return a.paused }

func (a *App) dispatchLifecycle(ex *kernel.Exec, m Message) {
	switch m.What {
	case msgPause:
		a.onPause(ex)
		// Park in the looper until resumed. Trim requests are honoured
		// even while parked; other non-lifecycle messages — input events
		// included — and redundant pauses are consumed and dropped, as a
		// real paused activity ignores stale UI traffic (the input
		// dispatcher's accounting reports those as dropped).
		for {
			next := a.Looper.q.Recv(ex)
			switch next.What {
			case msgResume:
				a.onResume(ex)
				return
			case msgTrim:
				a.onTrimMemory(ex, int(next.Arg))
			}
		}
	case msgResume:
		// Resume while already resumed: stale message, drop it.
	case msgTrim:
		a.onTrimMemory(ex, int(m.Arg))
	case msgInput:
		a.performInput(ex, m.Input)
	}
}

// onTrimMemory is the app's ComponentCallbacks2 response: framework bytecode
// for the callback dispatch, then the dalvik heap gives its free tail back
// to the machine — the cooperative half of surviving memory pressure.
func (a *App) onTrimMemory(ex *kernel.Exec, level int) {
	a.VM.InterpBulk(ex, a.frameworkDexFor(ex), 1800, false)
	if level >= TrimBackground {
		a.VM.TrimMemory(ex)
	}
}

// onPause runs the app side of backgrounding: onPause/onSaveInstanceState
// in framework bytecode, then the window drops out of composition.
func (a *App) onPause(ex *kernel.Exec) {
	a.paused = true
	a.VM.InterpBulk(ex, a.frameworkDexFor(ex), 2600, false)
	ex.StackWork(800)
	if a.Surface != nil {
		a.Surface.Visible = false
	}
}

// onResume brings the activity back: onRestart/onResume bytecode, the
// window re-enters composition, and a fullscreen app re-hides the launcher.
func (a *App) onResume(ex *kernel.Exec) {
	a.paused = false
	a.VM.InterpBulk(ex, a.frameworkDexFor(ex), 2100, false)
	ex.StackWork(600)
	if a.Surface != nil {
		a.Surface.Visible = true
	}
	if a.Cfg.Fullscreen {
		a.Sys.HideLauncher()
	}
}

// PauseApp drives the manager side of backgrounding a: an ActivityManager
// transaction in system_server, then the pause message posted to the app's
// main looper. The app performs its half at its next PausePoint; apps that
// never reach one (pure background services) simply ignore it, as real
// services outlive activity pauses.
func (sys *System) PauseApp(ex *kernel.Exec, a *App) {
	if a.Dead {
		return
	}
	if _, err := sys.Binder.Call(ex, "activity", 3, lifecycleParcel(a.Cfg.Label, "pause")); err != nil {
		panic(err)
	}
	sys.notePaused(a)
	a.Looper.Post(ex, Message{What: msgPause})
}

// ResumeApp brings a backgrounded app to the foreground: the AMS resume
// transaction plus the resume message that unparks the app's main thread.
func (sys *System) ResumeApp(ex *kernel.Exec, a *App) {
	if a.Dead {
		return
	}
	if _, err := sys.Binder.Call(ex, "activity", 2, lifecycleParcel(a.Cfg.Label, "resume")); err != nil {
		panic(err)
	}
	sys.noteForeground(a)
	a.Looper.Post(ex, Message{What: msgResume})
}

// KillApp tears application a down the way the ActivityManager kills a
// process: the destroy transaction, then the teardown every app death
// shares (releaseApp). The dead App remains inspectable; launching a fresh
// app under the same name afterwards is allowed (the scenario engine's
// relaunch path).
func (sys *System) KillApp(ex *kernel.Exec, a *App) {
	if a.Dead {
		return
	}
	a.Dead = true
	if _, err := sys.Binder.Call(ex, "activity", 4, lifecycleParcel(a.Cfg.Label, "destroy")); err != nil {
		panic(err)
	}
	sys.releaseApp(a)
	sys.noteDead(a)
	// Kernel-side exit bookkeeping: task teardown, address-space unmap.
	ex.Syscall(6000, 1500)
}

// releaseApp is the host-side teardown of every app death (KillApp,
// CrashApp, the lowmemorykiller reap): the app's media sessions stop (the
// client-death notification path), its binder endpoint leaves the context
// manager, its surface leaves composition, every thread of the app process
// and its app_process helpers terminates, and transactions still queued on
// the dead endpoint complete with DEAD_REPLY, so no client wedges on a
// reply that will never come. Killing a process the lowmemorykiller
// already killed is a no-op.
func (sys *System) releaseApp(a *App) {
	if sys.Media != nil {
		sys.Media.StopOwned(a.Proc)
	}
	name := "app." + a.Cfg.Label
	svc, hadSvc := sys.Binder.Lookup(name)
	sys.Binder.Unregister(name)
	if a.Surface != nil {
		a.Surface.Visible = false
	}
	sys.K.KillProcess(a.Proc)
	for _, h := range a.HelperProcs {
		sys.K.KillProcess(h)
	}
	if hadSvc {
		sys.Binder.AbortPending(svc)
	}
}
