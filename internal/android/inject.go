package android

import (
	"fmt"

	"agave/internal/binder"
	"agave/internal/kernel"
	"agave/internal/sim"
)

// The fault-injection plane. Scenario fault events land here: the Injector
// arms one-shot binder transaction failures, crashes registered services
// and the mediaserver, and sends corrupt parcels — all from the scenario
// driver thread inside system_server, so chaos sessions replay
// byte-identically. The same object is the run's dependability scoreboard:
// faults injected, faults detected (some framework or app code observed the
// failure and took its error path), recoveries completed (crashed services
// and mediaserver sessions relaunched), and ANRs the watchdog raised.

// ANR watchdog tuning. The timeout must comfortably exceed the longest
// legitimate gap between looper drains — most workloads pump every 500 ms
// or faster, but countdown.main ticks once per second — or idle-but-healthy
// apps would be flagged; two simulated seconds is the dispatch-timeout
// stand-in for Android's five.
const (
	anrTimeout    = 2 * sim.Second
	anrPollPeriod = 100 * sim.Millisecond
)

// appPingCode is the transaction code of the framework liveness callback
// the Injector drives into an app's binder endpoint.
const appPingCode int32 = 7

// Injector is the system_server fault-injection plane plus the run's
// dependability counters.
type Injector struct {
	sys *System

	// faults holds armed one-shot binder failures by service name; the
	// fault hook consumes one arm per matching transaction.
	faults map[string]int

	injected  int
	detected  int
	recovered int
	anrs      int
}

func newInjector(sys *System) *Injector {
	return &Injector{sys: sys, faults: make(map[string]int)}
}

// Counts reports the dependability scoreboard: faults injected, faults
// detected, recoveries completed, and ANRs raised.
func (inj *Injector) Counts() (injected, detected, recovered, anrs int) {
	return inj.injected, inj.detected, inj.recovered, inj.anrs
}

// NoteRecovered records one completed recovery action (the scenario engine
// calls it after relaunching a crashed service).
func (inj *Injector) NoteRecovered() { inj.recovered++ }

// NoteDetectedFault records that framework or application code observed an
// injected failure and took its error path instead of crashing: the
// framework's app callback on a corrupt parcel, and app-side handlers when a
// binder error reaches them.
func (sys *System) NoteDetectedFault() { sys.Inject.detected++ }

// faultHook implements binder.FaultHook: an armed service name fails its
// next transaction (one arm per failure), everything else passes.
func (inj *Injector) faultHook(service string) error {
	n, ok := inj.faults[service]
	if !ok {
		return nil
	}
	if n <= 1 {
		delete(inj.faults, service)
	} else {
		inj.faults[service] = n - 1
	}
	return fmt.Errorf("binder: injected transaction failure on %q", service)
}

// frameworkPingParcel is the well-formed liveness callback payload: the
// interface header the app endpoint parses, plus the callback code.
func frameworkPingParcel(label string) *binder.Parcel {
	p := binder.NewParcel()
	p.WriteString("android.app.IApplicationThread")
	p.WriteString(label)
	return p
}

// InjectBinderFault arms a one-shot transaction failure on the labelled
// app's binder endpoint and drives a framework callback into it, so the
// injected error fires immediately and deterministically. The callback is
// oneway: a faulted (or dying) endpoint can never wedge the injecting
// thread. It reports false when the label has no live app — the fault
// drops, the runtime counterpart of the validator's liveness rule.
func (sys *System) InjectBinderFault(ex *kernel.Exec, label string) bool {
	a := sys.appByLabel(label)
	if a == nil || a.Dead {
		return false
	}
	inj := sys.Inject
	name := "app." + label
	inj.faults[name]++
	inj.injected++
	// AMS bookkeeping for the callback it is about to deliver.
	sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 900, false)
	if err := sys.Binder.CallOneway(ex, name, appPingCode, frameworkPingParcel(label)); err != nil {
		// The armed fault fired on our own ping: the framework logs the
		// failed transaction and moves on — detection, by construction.
		inj.detected++
		sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 600, false)
	}
	return true
}

// InjectCorruptParcel sends the labelled app's binder endpoint an empty
// parcel where the callback header is expected: every read underruns, so
// the receiver must take its error path (which reports the detection).
// Oneway, like InjectBinderFault; reports false when the target is dead.
func (sys *System) InjectCorruptParcel(ex *kernel.Exec, label string) bool {
	a := sys.appByLabel(label)
	if a == nil || a.Dead {
		return false
	}
	sys.Inject.injected++
	sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 900, false)
	if err := sys.Binder.CallOneway(ex, "app."+label, appPingCode, binder.NewParcel()); err != nil {
		// The endpoint vanished between the liveness check and the send:
		// the corruption never reached a receiver, but the framework saw
		// the failed transaction — still a detection.
		sys.Inject.detected++
		sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 600, false)
	}
	return true
}

// CrashApp tears application a down the way a native crash does: no
// orderly destroy transaction — the process just dies, binder's death
// notification fires, and the framework reaps the carcass (releaseApp),
// exactly the KillApp teardown minus the app's own goodbye. Counts one
// injected and one detected fault (the death notification is the
// detection).
func (sys *System) CrashApp(ex *kernel.Exec, a *App) {
	if a.Dead {
		return
	}
	a.Dead = true
	inj := sys.Inject
	inj.injected++
	sys.releaseApp(a)
	// Binder death notification + ActivityManager crash handling
	// (dropbox entry, process-record cleanup) in framework bytecode.
	sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 2800, false)
	sys.noteDead(a)
	inj.detected++
	// Kernel-side exit bookkeeping: task teardown, address-space unmap.
	ex.Syscall(6000, 1500)
}

// CrashMediaserver kills the mediaserver process outright and performs the
// init-style restart: the old process dies with its decode loops, binder
// pool, and mixer; queued transactions abort with DEAD_REPLY; a fresh
// mediaserver boots and adopts the old player sessions under their old ids
// (AdoptSessions), so client handles keep working and in-flight playback
// resumes on the replacement. It returns the number of active sessions
// relaunched; the scoreboard counts one injected and one detected fault,
// and one recovery per restart plus one per relaunched session.
func (sys *System) CrashMediaserver(ex *kernel.Exec) int {
	inj := sys.Inject
	inj.injected++
	old := sys.Media
	svc, hadSvc := sys.Binder.Lookup("media.player")
	sys.Binder.Unregister("media.player")
	sys.K.KillProcess(old.Proc)
	if hadSvc {
		sys.Binder.AbortPending(svc)
	}
	// init notices the death (SIGCHLD, service-restart bookkeeping) and
	// the framework logs the media.player death notification.
	sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 1200, false)
	inj.detected++
	ex.Syscall(6000, 1500)
	sys.startMediaserver()
	relaunched := sys.Media.AdoptSessions(old)
	inj.recovered += 1 + relaunched
	// Restart cost: fork/exec of the service binary.
	ex.Syscall(3000, 800)
	return relaunched
}

// scanForANRs is the AnrWatchdog's poll: age the head message of each
// candidate app's main looper and raise an ANR for any blocked strictly
// past anrTimeout, latched per episode (the latch re-arms when the looper
// drains). Candidates are resumed foreground-capable apps other than the
// launcher and systemui — those two, like pure background services, post
// periodic trim traffic into loopers that by design never drain, so aging
// them would manufacture false positives; paused apps park inside their
// looper Recv and consume messages promptly.
func (inj *Injector) scanForANRs(ex *kernel.Exec) {
	inj.scanForANRsAt(ex, ex.Now())
}

// scanForANRsAt is the poll body with the observation time factored out:
// every head message is aged against now, the poll's entry instant, so the
// timeout boundary is exact and testable (the bytecode the walk itself
// charges does not smear into the age comparison).
func (inj *Injector) scanForANRsAt(ex *kernel.Exec, now sim.Ticks) {
	sys := inj.sys
	// The record walk itself is framework bytecode in system_server.
	sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 150, false)
	for _, a := range sys.amApps {
		if a.Dead || !a.Cfg.Foreground || a == sys.Launcher || a == sys.SystemUI || a.Paused() {
			continue
		}
		head, ok := a.Looper.Oldest()
		if !ok {
			a.anrFlagged = false
			continue
		}
		if now-head.Posted <= anrTimeout {
			continue
		}
		if a.anrFlagged {
			continue
		}
		a.anrFlagged = true
		inj.anrs++
		// The ANR report: stack dumps and the not-responding dialog path.
		sys.SystemServerVM.InterpBulk(ex, sys.servicesDex, 1500, false)
		sys.Input.noteANR(a.Cfg.Label)
	}
}
