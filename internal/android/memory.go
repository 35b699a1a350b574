// The ActivityManager side of the memory-pressure model: oom_adj assignment
// (foreground / visible / perceptible / home / cached-LRU), onTrimMemory
// delivery to background apps when free pages run low, and the userspace
// half of a lowmemorykiller process death (binder teardown, media session
// stop, hiding the surface) — the pieces that make a kill under pressure an
// emergent whole-stack event rather than a scripted one.

package android

import (
	"slices"

	"agave/internal/kernel"
	"agave/internal/sim"
)

// onTrimMemory severity levels, as ComponentCallbacks2 spells them.
const (
	// TrimBackground asks background apps to drop caches they can
	// rebuild (TRIM_MEMORY_BACKGROUND).
	TrimBackground = 40
	// TrimComplete warns an app it is first in line to be killed
	// (TRIM_MEMORY_COMPLETE).
	TrimComplete = 80
)

// memMonitorPeriod is how often the ActivityManager re-reads the free-page
// watermark to decide about trim broadcasts.
const memMonitorPeriod = 25 * sim.Millisecond

// registerApp adds a to the ActivityManager's process records.
func (sys *System) registerApp(a *App) {
	sys.amApps = append(sys.amApps, a)
}

// noteLaunched records an app start: a launched activity takes the
// foreground (backgrounding whoever held it); services and the resident
// launcher/systemui apps only join the ladder.
func (sys *System) noteLaunched(a *App) {
	if a != sys.Launcher && a != sys.SystemUI && a.Cfg.Foreground {
		if f := sys.amForeground; f != nil && f != a {
			sys.cacheApp(f)
		}
		sys.uncacheApp(a)
		sys.amForeground = a
	}
	sys.updateOomAdj()
}

// notePaused records a backgrounding: the app drops out of the foreground
// slot and enters the cached LRU at the most-recent end.
func (sys *System) notePaused(a *App) {
	if sys.amForeground == a {
		sys.amForeground = nil
	}
	if a != sys.Launcher && a != sys.SystemUI && a.Cfg.Foreground && !a.Dead {
		sys.cacheApp(a)
	}
	sys.updateOomAdj()
}

// noteResumed records a foreground switch.
func (sys *System) noteResumed(a *App) {
	if a != sys.Launcher && a != sys.SystemUI && a.Cfg.Foreground {
		if f := sys.amForeground; f != nil && f != a {
			sys.cacheApp(f)
		}
		sys.uncacheApp(a)
		sys.amForeground = a
	}
	sys.updateOomAdj()
}

// noteDead removes a dead app from every record.
func (sys *System) noteDead(a *App) {
	if sys.amForeground == a {
		sys.amForeground = nil
	}
	sys.uncacheApp(a)
	if i := slices.Index(sys.amApps, a); i >= 0 {
		// Into a fresh slice, not in place: deliverTrims and the ANR scan
		// yield mid-walk and must keep ranging over the records they
		// started with.
		sys.amApps = slices.Concat(sys.amApps[:i], sys.amApps[i+1:])
	}
	sys.updateOomAdj()
}

// cacheApp moves a to the most-recent end of the cached LRU.
func (sys *System) cacheApp(a *App) {
	sys.uncacheApp(a)
	sys.amCached = append([]*App{a}, sys.amCached...)
}

func (sys *System) uncacheApp(a *App) {
	for i, c := range sys.amCached {
		if c == a {
			sys.amCached = append(sys.amCached[:i], sys.amCached[i+1:]...)
			a.lruIndex = 0
			return
		}
	}
}

// updateOomAdj recomputes every app's lowmemorykiller badness from the
// current records: foreground 0, status bar visible, background services
// perceptible, launcher home, everything else cached with a score that grows
// as the app ages down the LRU. Helper processes share their app's score.
func (sys *System) updateOomAdj() {
	for i, c := range sys.amCached {
		c.lruIndex = i
	}
	for _, a := range sys.amApps {
		if a.Dead {
			continue
		}
		adj := kernel.OomPerceptible
		switch {
		case a == sys.SystemUI:
			adj = kernel.OomVisible
		case a == sys.Launcher:
			adj = kernel.OomHome
		case a == sys.amForeground:
			adj = kernel.OomForeground
		case a.Cfg.Foreground:
			adj = min(kernel.OomCachedMin+a.lruIndex, kernel.OomCachedMax)
		}
		a.Proc.OomAdj = adj
		for _, h := range a.HelperProcs {
			h.OomAdj = adj
		}
	}
}

// startMemoryManagement spawns the two system_server threads the pressure
// model adds: the memory monitor that broadcasts onTrimMemory when free
// pages run low, and the process reaper that performs the framework half of
// every lowmemorykiller death.
func (sys *System) startMemoryManagement() {
	k := sys.K
	ss := sys.SystemServer

	// The trim waterline sits at twice the highest minfree rung: apps are
	// asked to shrink before the killer has grounds to act.
	var cachedLine uint64
	for _, rung := range k.Cfg.MinFree {
		if rung.Pages > cachedLine {
			cachedLine = rung.Pages
		}
	}
	trimLine := 2 * cachedLine

	k.SpawnThread(ss, "MemoryMonitor", "ActivityManager", func(ex *kernel.Exec) {
		ex.PushCode(ss.Layout.Text)
		for {
			ex.SleepFor(memMonitorPeriod)
			free := k.FreePages()
			if free >= trimLine {
				// Pressure cleared: re-arm one trim per app for the
				// next episode.
				for _, a := range sys.amApps {
					a.trimmed = false
				}
				continue
			}
			level := TrimBackground
			if free < cachedLine {
				level = TrimComplete
			}
			sys.deliverTrims(ex, level)
		}
	})

	k.SpawnThread(ss, "ProcessReaper", "ActivityManager", func(ex *kernel.Exec) {
		ex.PushCode(ss.Layout.Text)
		for {
			victim := ex.Recv(k.DeathQueue()).(*kernel.Process)
			sys.reapDeadProcess(ex, victim)
		}
	})
}

// deliverTrims posts one onTrimMemory to every live non-foreground app that
// has not been trimmed this pressure episode.
func (sys *System) deliverTrims(ex *kernel.Exec, level int) {
	for _, a := range sys.amApps {
		if a.Dead || a.trimmed || a == sys.amForeground {
			continue
		}
		a.trimmed = true
		sys.trims++
		// The AM walks its process records and posts the callback.
		sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 600, false)
		a.Looper.Post(ex, Message{What: msgTrim, Arg: int64(level)})
	}
}

// reapDeadProcess performs the ActivityManager's reaction to a process the
// kernel killed: the teardown a scripted KillApp does synchronously
// (releaseApp), so helper processes die with their app, media sessions
// stop through the client-death path and queued callers get DEAD_REPLY,
// and the records update so the oom ladder reflects the loss.
func (sys *System) reapDeadProcess(ex *kernel.Exec, p *kernel.Process) {
	var app *App
	for _, a := range sys.amApps {
		if a.Proc == p && !a.Dead {
			app = a
			break
		}
	}
	if app == nil {
		return // a helper or an already-reaped process
	}
	app.Dead = true
	sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 2800, false)
	sys.releaseApp(app)
	sys.noteDead(app)
	// Kernel-side exit bookkeeping for the stragglers.
	ex.Syscall(4000, 1000)
}
