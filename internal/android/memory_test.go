package android

import (
	"fmt"
	"strings"
	"testing"

	"agave/internal/kernel"
	"agave/internal/sim"
)

// refOomAdj is the ladder updateOomAdj computed before it indexed the LRU in
// one pass: the cached position comes from a scan of amCached per app.
func refOomAdj(sys *System, a *App) int {
	switch {
	case a == sys.SystemUI:
		return kernel.OomVisible
	case a == sys.Launcher:
		return kernel.OomHome
	case a == sys.amForeground:
		return kernel.OomForeground
	case a.Cfg.Foreground:
		idx := 0
		for i, c := range sys.amCached {
			if c == a {
				idx = i
				break
			}
		}
		return min(kernel.OomCachedMin+idx, kernel.OomCachedMax)
	}
	return kernel.OomPerceptible
}

// TestDeadAppsLeaveTheRecords runs launch/kill cycles through every death
// path — KillApp, a lowmemorykiller reap, CrashApp — and checks the
// ActivityManager records after each step: amApps holds exactly the live
// apps (so it is the same length after every cycle), appByLabel resolves to
// the newest live incarnation, and every live app carries the oom_adj the
// per-app LRU scan would have given it.
func TestDeadAppsLeaveTheRecords(t *testing.T) {
	k := kernel.New(kernel.Config{
		Quantum:  100 * sim.Microsecond,
		Seed:     11,
		MemPages: 4 * kernel.DefaultMemPages,
		MinFree:  kernel.DefaultMinFree(0),
	})
	t.Cleanup(k.Shutdown)
	sys := Boot(k)
	var created []*App
	launch := func(label string, fg bool) *App {
		a := sys.NewApp(AppConfig{Process: label, Label: label, Foreground: fg, Helpers: 1})
		a.Start(func(ex *kernel.Exec, a *App) { ex.SleepFor(30 * sim.Second) })
		created = append(created, a)
		return a
	}
	// The checks run on the driver thread, so they report the first
	// failure with Errorf, not Fatalf.
	failed := false
	fail := func(format string, args ...any) {
		if !failed {
			t.Errorf(format, args...)
		}
		failed = true
	}
	check := func(step string) {
		live := []*App{sys.Launcher, sys.SystemUI}
		for _, a := range created {
			if !a.Dead {
				live = append(live, a)
			}
		}
		if len(sys.amApps) != len(live) {
			fail("%s: amApps holds %d records, %d apps are live", step, len(sys.amApps), len(live))
			return
		}
		for _, a := range live {
			want := refOomAdj(sys, a)
			if a.Proc.OomAdj != want {
				fail("%s: %s oom_adj %d, LRU scan gives %d", step, a.Cfg.Label, a.Proc.OomAdj, want)
				return
			}
			for _, h := range a.HelperProcs {
				if h.OomAdj != want {
					fail("%s: %s helper oom_adj %d, want %d", step, a.Cfg.Label, h.OomAdj, want)
					return
				}
			}
		}
	}
	resolves := func(step, label string, want *App) {
		if got := sys.appByLabel(label); got != want {
			fail("%s: appByLabel(%q) = %p, want %p", step, label, got, want)
		}
	}

	const cycles = 3
	perCycle := -1
	done := false
	k.SpawnThread(sys.SystemServer, "driver", "driver", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		defer func() { done = true }()
		for c := 0; c < cycles && !failed; c++ {
			// Nine activities: each launch caches the previous one, so
			// the LRU runs past the OomCachedMax clamp.
			var fg []*App
			for i := 0; i < 9; i++ {
				fg = append(fg, launch(fmt.Sprintf("fg%d", i), true))
				ex.SleepFor(5 * sim.Millisecond)
				check(fmt.Sprintf("cycle %d launch fg%d", c, i))
			}
			svc := launch("svc", false)
			sys.ResumeApp(ex, fg[2])
			check(fmt.Sprintf("cycle %d resume fg2", c))
			sys.PauseApp(ex, fg[2])
			check(fmt.Sprintf("cycle %d pause fg2", c))

			for i, a := range fg {
				resolves(fmt.Sprintf("cycle %d", c), fmt.Sprintf("fg%d", i), a)
			}

			sys.KillApp(ex, fg[0])
			check(fmt.Sprintf("cycle %d KillApp", c))
			resolves(fmt.Sprintf("cycle %d KillApp", c), "fg0", nil)
			relaunched := launch("fg0", true)
			ex.SleepFor(5 * sim.Millisecond)
			resolves(fmt.Sprintf("cycle %d relaunch", c), "fg0", relaunched)

			// The lowmemorykiller's kill and announcement; the reaper
			// does the rest.
			k.KillProcess(relaunched.Proc)
			k.DeathQueue().Send(ex, relaunched.Proc)
			ex.SleepFor(20 * sim.Millisecond)
			if !relaunched.Dead {
				fail("cycle %d: the reaper did not reap fg0", c)
				return
			}
			check(fmt.Sprintf("cycle %d LMK reap", c))
			resolves(fmt.Sprintf("cycle %d LMK reap", c), "fg0", nil)

			sys.CrashApp(ex, fg[3])
			check(fmt.Sprintf("cycle %d CrashApp", c))
			resolves(fmt.Sprintf("cycle %d CrashApp", c), "fg3", nil)

			for _, a := range append(fg[1:], svc) { // fg3 is already dead
				sys.KillApp(ex, a)
				check(fmt.Sprintf("cycle %d KillApp %s", c, a.Cfg.Label))
			}
			if perCycle < 0 {
				perCycle = len(sys.amApps)
			} else if len(sys.amApps) != perCycle {
				fail("cycle %d: amApps holds %d records, %d after the first cycle", c, len(sys.amApps), perCycle)
			}
		}
	})
	k.Run(5 * sim.Second)
	if !done {
		t.Fatal("driver thread never finished")
	}
}

// TestNoClientWedgesOnADeadEndpoint: a client blocked in a synchronous call
// on an app's binder endpoint, its transaction still queued, must return
// whichever way the app dies: KillApp, CrashApp or a lowmemorykiller reap.
// It returns with the reply if the app served the call before dying, or
// with binder's DEAD_REPLY error.
func TestNoClientWedgesOnADeadEndpoint(t *testing.T) {
	const label = "callee.app"
	deaths := []struct {
		name string
		kill func(sys *System, ex *kernel.Exec, a *App)
	}{
		{"KillApp", (*System).KillApp},
		{"CrashApp", (*System).CrashApp},
		{"LMK reap", func(sys *System, ex *kernel.Exec, a *App) {
			// The lowmemorykiller's kill and announcement; the reaper
			// does the rest.
			sys.K.KillProcess(a.Proc)
			sys.K.DeathQueue().Send(ex, a.Proc)
		}},
	}
	for _, d := range deaths {
		t.Run(d.name, func(t *testing.T) {
			k := kernel.New(kernel.Config{
				Quantum:  100 * sim.Microsecond,
				Seed:     11,
				MemPages: 4 * kernel.DefaultMemPages,
				MinFree:  kernel.DefaultMinFree(0),
			})
			t.Cleanup(k.Shutdown)
			sys := Boot(k)
			app := blockedApp(sys, label)
			returned, queued := false, false
			var callErr error
			k.SpawnThread(sys.SystemServer, "driver", "driver", func(ex *kernel.Exec) {
				ex.PushCode(sys.SystemServer.Layout.Text)
				ex.SleepFor(300 * sim.Millisecond) // the app finishes launching
				svc, _ := sys.Binder.Lookup("app." + label)
				k.SpawnThread(sys.SystemServer, "client", "client", func(ex *kernel.Exec) {
					ex.PushCode(sys.SystemServer.Layout.Text)
					_, callErr = sys.Binder.Call(ex, "app."+label, appPingCode, frameworkPingParcel(label))
					returned = true
				})
				// The client queues its transaction and blocks; the
				// driver runs again before the app's binder thread, which
				// the send woke, can serve it.
				ex.Yield()
				queued = !returned && svc.Calls == 0
				d.kill(sys, ex, app)
			})
			k.Run(1 * sim.Second)
			if !queued {
				t.Fatal("the client's transaction was not pending when the app died")
			}
			if !app.Dead {
				t.Fatal("the app did not die")
			}
			if !returned {
				t.Fatal("the client is still blocked on the dead endpoint")
			}
			if callErr != nil && !strings.Contains(callErr.Error(), "service died") {
				t.Fatalf("the call failed with %v, want its reply or DEAD_REPLY", callErr)
			}
		})
	}
}

// TestTrimWalkSurvivesADeathMidWalk: deliverTrims yields between apps, and an
// app that dies meanwhile leaves amApps. The walk must keep visiting the
// records it started with: no live app skipped, none trimmed twice.
func TestTrimWalkSurvivesADeathMidWalk(t *testing.T) {
	// A short quantum so the walk spans several.
	k := kernel.New(kernel.Config{Quantum: 5 * sim.Microsecond, Seed: 11})
	t.Cleanup(k.Shutdown)
	sys := Boot(k)
	var bg []*App
	for i := 0; i < 8; i++ {
		bg = append(bg, blockedApp(sys, fmt.Sprintf("bg%d.app", i)))
	}
	victim := bg[0] // walked past before it dies
	trimsAtDeath, done := -1, false
	k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		ex.SleepFor(300 * sim.Millisecond)
		k.SpawnThread(sys.SystemServer, "killer", "killer", func(ex *kernel.Exec) {
			for sys.trims < 4 {
				ex.SleepFor(10 * sim.Microsecond)
			}
			// The tail every death path ends with.
			victim.Dead = true
			sys.noteDead(victim)
			trimsAtDeath = sys.trims
		})
		sys.deliverTrims(ex, TrimBackground)
		done = true
	})
	k.Run(2 * sim.Second)
	if !done {
		t.Fatal("probe thread never finished")
	}
	if trimsAtDeath < 4 || trimsAtDeath >= sys.trims {
		t.Fatalf("the victim died after %d of %d trims, not during the walk", trimsAtDeath, sys.trims)
	}
	want := 0
	for _, a := range append([]*App{sys.Launcher, sys.SystemUI}, bg...) {
		if a.trimmed {
			want++
		} else if !a.Dead && a != sys.amForeground {
			t.Fatalf("live background app %s was not trimmed", a.Cfg.Label)
		}
	}
	if sys.trims != want {
		t.Fatalf("%d trims delivered to %d apps", sys.trims, want)
	}
}
