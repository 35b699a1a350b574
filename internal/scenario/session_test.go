package scenario_test

import (
	"reflect"
	"testing"

	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
)

// The engine tests sit in the external test package: the engine,
// core.RunScenarioDef, imports scenario, so only scenario_test can call it.

// sessionCfg is the short session every engine test runs: 150 ms measured
// after 80 ms of warmup.
func sessionCfg() core.Config {
	return core.Config{
		Seed:     1,
		Duration: 150 * sim.Millisecond,
		Warmup:   80 * sim.Millisecond,
		Quantum:  sim.Millisecond,
	}
}

// TestRunIsSeedDeterministic is the core guarantee: a scenario is a
// measurement, so two runs with equal seeds must produce bit-identical
// attributed counters even across launches, switches, and kills.
func TestRunIsSeedDeterministic(t *testing.T) {
	sc, err := scenario.ByName("commute")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Fingerprint() != b.Stats.Fingerprint() {
		t.Fatal("same seed, diverging fingerprints")
	}
	if !reflect.DeepEqual(a.Stats.Entries(), b.Stats.Entries()) {
		t.Fatal("same seed, diverging counter matrices")
	}
	// A different session length is a genuinely different measurement.
	longer := sessionCfg()
	longer.Duration += 50 * sim.Millisecond
	c, err := core.RunScenarioDef(sc, longer)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Fingerprint() == a.Stats.Fingerprint() {
		t.Fatal("longer run produced an identical fingerprint")
	}
}

// TestEndOfIntervalEventFires guards the half-open-interval edge: the
// kernel stops the instant the deadline is reached, so an event scripted at
// At=1000 must land on the interval's last tick, not one past it.
func TestEndOfIntervalEventFires(t *testing.T) {
	sc := &scenario.Scenario{
		Name:        "edge",
		Description: "kill on the final tick",
		Apps:        []scenario.App{{Name: "note", Workload: "countdown.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "note"},
			{At: 1000, Kind: scenario.Kill, App: "note"},
		},
	}
	res, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveProcesses >= res.Processes {
		t.Fatalf("At=1000 kill did not execute: live %d, total %d",
			res.LiveProcesses, res.Processes)
	}
}

// TestPerAppAttribution pins the tentpole property: with four apps live at
// once, every app is its own process in the counter matrix, and all of them
// issue references.
func TestPerAppAttribution(t *testing.T) {
	sc, err := scenario.ByName("social-burst")
	if err != nil {
		t.Fatal(err)
	}
	if sc.MaxLiveApps() < 3 {
		t.Fatalf("social-burst holds %d live apps, want >= 3", sc.MaxLiveApps())
	}
	res, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	byProc := res.Stats.ByProcess()
	for _, app := range sc.Apps {
		if byProc[app.Name] == 0 {
			t.Errorf("app %q attributed no references", app.Name)
		}
	}
	// The resident stack is present too, exactly as in single-app runs
	// (zygote itself is silent post-warmup, there as here: it parks in its
	// fork-request loop before measurement starts).
	for _, p := range []string{"system_server", "mediaserver", "swapper"} {
		if byProc[p] == 0 {
			t.Errorf("resident process %q attributed no references", p)
		}
	}
	if res.Session.Scenario.MaxLiveApps() < 3 {
		t.Errorf("result MaxLive = %d, want >= 3", res.Session.Scenario.MaxLiveApps())
	}
}

// TestKillTearsProcessesDown runs the kill-heavy scenarios and checks the
// census: killed incarnations stay in the process count (as all spawned
// processes do) while the live count drops below it.
func TestKillTearsProcessesDown(t *testing.T) {
	for _, name := range []string{"media-marathon", "app-churn"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunScenarioDef(sc, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.LiveProcesses >= res.Processes {
			t.Errorf("%s: live processes %d not below total %d after kills",
				name, res.LiveProcesses, res.Processes)
		}
	}
}

// TestMemoryStormEmergentKills is the tentpole acceptance bar: the
// memory-storm timeline scripts no Kill event at all, yet under its Pressure
// events the lowmemorykiller must evict processes — cached apps before the
// perceptible/visible band, and never the foreground app. Kill timing and
// victim identity are decided by the kernel, not the script.
func TestMemoryStormEmergentKills(t *testing.T) {
	sc, err := scenario.ByName("memory-storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sc.Timeline {
		if ev.Kind == scenario.Kill {
			t.Fatalf("memory-storm scripts a kill: %s", ev)
		}
	}
	res, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Session.LMKKills < 1 {
		t.Fatal("memory-storm produced no lowmemorykiller kill")
	}
	if res.Session.LMKKills != len(res.Session.LMKVictims) {
		t.Fatalf("kill count %d != victims %v", res.Session.LMKKills, res.Session.LMKVictims)
	}
	pos := make(map[string]int)
	for i, v := range res.Session.LMKVictims {
		if v == "game" {
			t.Fatalf("foreground app killed: victims %v", res.Session.LMKVictims)
		}
		pos[v] = i
	}
	// The cached apps (dict was backgrounded first, then timer) must go
	// before anything in the visible/perceptible band.
	cached := []string{"dict", "timer"}
	for _, c := range cached {
		ci, ok := pos[c]
		if !ok {
			continue
		}
		for _, v := range []string{"radio", "ndroid.systemui"} {
			if vi, ok := pos[v]; ok && vi < ci {
				t.Fatalf("victim order violates oom_adj: %q before cached %q in %v",
					v, c, res.Session.LMKVictims)
			}
		}
	}
	if _, ok := pos["dict"]; !ok {
		t.Fatalf("LRU-oldest cached app survived the storm: victims %v", res.Session.LMKVictims)
	}
	if res.Session.Trims == 0 {
		t.Fatal("storm delivered no onTrimMemory callbacks")
	}
	// Emergent deaths show up in the census like scripted ones.
	if res.LiveProcesses >= res.Processes {
		t.Fatalf("census does not reflect LMK deaths: live %d of %d",
			res.LiveProcesses, res.Processes)
	}
}

// TestCachedAppEvictionPolicy pins the cooperative-then-coercive ladder:
// moderate pressure only trims (apps shrink their dalvik heaps), and the
// deep wave evicts exactly the LRU-oldest cached app — chosen by oom_adj
// recency, not by size — while the recently-used cached app and the
// foreground survive.
func TestCachedAppEvictionPolicy(t *testing.T) {
	sc, err := scenario.ByName("cached-app-eviction")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Session.Trims == 0 {
		t.Fatal("moderate pressure delivered no onTrimMemory callbacks")
	}
	if res.Session.LMKKills < 1 {
		t.Fatal("deep pressure killed nothing")
	}
	if res.Session.LMKVictims[0] != "notes" {
		t.Fatalf("first victim = %q, want the LRU-oldest cached app %q (victims %v)",
			res.Session.LMKVictims[0], "notes", res.Session.LMKVictims)
	}
	for _, v := range res.Session.LMKVictims {
		if v == "reader" || v == "game" {
			t.Fatalf("recently-used or foreground app evicted: %v", res.Session.LMKVictims)
		}
	}
}

// TestScenarioRunsStayKillFreeWithoutPressure guards the bundled library's
// backward compatibility: the pressure model is always on for scenarios, but
// with the default budget no non-Pressure scenario comes close to the
// minfree ladder.
func TestScenarioRunsStayKillFreeWithoutPressure(t *testing.T) {
	for _, name := range []string{"commute", "social-burst", "app-churn"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunScenarioDef(sc, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.Session.LMKKills != 0 || res.Session.Trims != 0 {
			t.Errorf("%s: unexpected pressure activity: %d kills %v, %d trims",
				name, res.Session.LMKKills, res.Session.LMKVictims, res.Session.Trims)
		}
	}
}

// TestMinFreeKnobTightensTheKiller pins the -minfree plumbing: raising the
// waterline makes a previously-safe session come under pressure.
func TestMinFreeKnobTightensTheKiller(t *testing.T) {
	sc, err := scenario.ByName("social-burst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sessionCfg()
	cfg.MinFreePages = 120_000 // absurdly high waterline: everything is pressure
	res, err := core.RunScenarioDef(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Session.LMKKills == 0 && res.Session.Trims == 0 {
		t.Fatal("raised minfree waterline produced no pressure response")
	}
}

// TestRepeatedRunsWithWarmPoolsAreByteIdentical pins the pooling work: the
// engine's free lists (binder transactions, recycled cpu contexts) and the
// package-level caches they feed (stock dex images, decoded programs) must
// never leak state between runs. The first run of each scenario is the
// cold-cache reference; the two that follow execute with every process-wide
// cache warm and must reproduce the report byte for byte. Both a chaos
// scenario (fault injection, crash/restart) and an input-heavy scenario (the
// dispatcher's event path) are covered.
func TestRepeatedRunsWithWarmPoolsAreByteIdentical(t *testing.T) {
	for _, name := range []string{"binder-storm", "thumb-scroll"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.RunScenarioDef(sc, sessionCfg())
		if err != nil {
			t.Fatalf("%s: cold run: %v", name, err)
		}
		for i := 0; i < 2; i++ {
			warm, err := core.RunScenarioDef(sc, sessionCfg())
			if err != nil {
				t.Fatalf("%s: warm run %d: %v", name, i, err)
			}
			if warm.Stats.Fingerprint() != cold.Stats.Fingerprint() {
				t.Fatalf("%s: warm run %d fingerprint diverged", name, i)
			}
			if !reflect.DeepEqual(warm.Stats.Entries(), cold.Stats.Entries()) {
				t.Fatalf("%s: warm run %d counter matrix diverged", name, i)
			}
			// Every non-counter report input must match too: census
			// scalars, input outcomes, fault bookkeeping.
			wc, cc := *warm, *cold
			wc.Stats, cc.Stats = nil, nil
			if !reflect.DeepEqual(wc, cc) {
				t.Fatalf("%s: warm run %d result fields diverged:\nwarm: %+v\ncold: %+v", name, i, wc, cc)
			}
		}
	}
}

// TestChaosLibraryScenariosInjectDetectRecover pins the acceptance bar on
// the two bundled chaos sessions: both must inject and detect faults, both
// must complete recoveries (a restarted service or mediaserver), and both
// must replay bit-identically.
func TestChaosLibraryScenariosInjectDetectRecover(t *testing.T) {
	for _, name := range []string{"binder-storm", "mediaserver-meltdown"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.RunScenarioDef(sc, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if r.Session.FaultsInjected == 0 {
			t.Errorf("%s: no faults injected", name)
		}
		if r.Session.FaultsDetected == 0 {
			t.Errorf("%s: no fault detected", name)
		}
		if r.Session.FaultsRecovered == 0 {
			t.Errorf("%s: no recovery completed", name)
		}
		r2, err := core.RunScenarioDef(sc, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Fingerprint() != r2.Stats.Fingerprint() {
			t.Errorf("%s: chaos session is not seed-deterministic", name)
		}
		if r.Session.FaultsInjected != r2.Session.FaultsInjected || r.Session.FaultsDetected != r2.Session.FaultsDetected ||
			r.Session.FaultsRecovered != r2.Session.FaultsRecovered || r.Session.ANRs != r2.Session.ANRs {
			t.Errorf("%s: dependability counters diverged between runs: %d/%d/%d/%d vs %d/%d/%d/%d",
				name, r.Session.FaultsInjected, r.Session.FaultsDetected, r.Session.FaultsRecovered, r.Session.ANRs,
				r2.Session.FaultsInjected, r2.Session.FaultsDetected, r2.Session.FaultsRecovered, r2.Session.ANRs)
		}
	}
}

// TestCrashServiceRestartsAndLaterEventsLand: a crashService mid-session
// must leave the app targetable — the script's later switchto and tap aim at
// the restarted incarnation, and the session ends with the recovery counted.
func TestCrashServiceRestartsAndLaterEventsLand(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "crash-restart",
		Apps: []scenario.App{
			{Name: "game", Workload: "frozenbubble.main"},
			{Name: "dict", Workload: "aard.main"},
		},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 100, Kind: scenario.Launch, App: "dict"},
			{At: 300, Kind: scenario.CrashService, App: "game"}, // crashes behind dict
			{At: 500, Kind: scenario.SwitchTo, App: "game"},     // targets the restart
			{At: 650, Kind: scenario.Tap, App: "game"},
			{At: 800, Kind: scenario.CrashService, App: "game"}, // crashes while foreground
			{At: 950, Kind: scenario.Tap, App: "game"},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("crashService must keep its target script-live: %v", err)
	}
	r, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Session.FaultsInjected != 2 || r.Session.FaultsDetected != 2 {
		t.Fatalf("injected/detected = %d/%d, want 2/2", r.Session.FaultsInjected, r.Session.FaultsDetected)
	}
	if r.Session.FaultsRecovered != 2 {
		t.Fatalf("recovered = %d, want 2 (one relaunch per crash)", r.Session.FaultsRecovered)
	}
	if r.Session.InputDispatched == 0 {
		t.Fatal("no tap reached the restarted foreground app")
	}
}

// TestGeneratorFaultsKnob: the Faults knob weaves fault events into a valid
// timeline (targeted faults only at script-live apps), the knob value lands
// in the scenario name, generation stays a pure function, and the session
// runs with every event applied.
func TestGeneratorFaultsKnob(t *testing.T) {
	cfg := scenario.GenConfig{Seed: 9, Apps: 4, Events: 16, Faults: 8}
	s := scenario.Generate(cfg)
	if err := s.Validate(); err != nil {
		t.Fatalf("generated chaos session invalid: %v", err)
	}
	if s.Name != "gen-s9-a4-e16-p0-i0-f8" {
		t.Fatalf("name = %q", s.Name)
	}
	var faults int
	for _, ev := range s.Timeline {
		switch ev.Kind {
		case scenario.FaultBinder, scenario.CrashService, scenario.KillMediaserver, scenario.CorruptParcel:
			faults++
		}
	}
	if faults != 8 {
		t.Fatalf("generated %d fault events, want 8", faults)
	}
	if !reflect.DeepEqual(s, scenario.Generate(cfg)) {
		t.Fatal("fault-bearing generation is not deterministic")
	}
	// The liveness guarantee must hold across seeds, not just one draw.
	for seed := uint64(1); seed <= 10; seed++ {
		g := scenario.Generate(scenario.GenConfig{Seed: seed, Apps: 3, Events: 12, Faults: 6})
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generated chaos session invalid: %v", seed, err)
		}
	}
	r, err := core.RunScenarioDef(s, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Session.FaultsInjected == 0 {
		t.Fatal("generated chaos session injected nothing")
	}
}

// inputTotalsConsistent asserts the input-accounting invariant on a session:
// every injected sample is either dispatched or dropped, at the session
// level and per app, and latency aggregates are coherent.
func inputTotalsConsistent(t *testing.T, r *core.Session) {
	t.Helper()
	if r.InputEvents != r.InputDispatched+r.InputDropped {
		t.Fatalf("input totals inconsistent: %d events != %d dispatched + %d dropped",
			r.InputEvents, r.InputDispatched, r.InputDropped)
	}
	var inj, disp, drop int
	for _, a := range r.InputApps {
		if a.Injected != a.Dispatched+a.Dropped {
			t.Fatalf("%s: per-app totals inconsistent: %d != %d + %d",
				a.App, a.Injected, a.Dispatched, a.Dropped)
		}
		if a.Dispatched > 0 {
			if a.LatencyMin > a.LatencyMax {
				t.Fatalf("%s: latency min %d > max %d", a.App, a.LatencyMin, a.LatencyMax)
			}
			if a.LatencySum < a.LatencyMax {
				t.Fatalf("%s: latency sum %d < max %d", a.App, a.LatencySum, a.LatencyMax)
			}
		} else if a.LatencyMin != 0 || a.LatencyMax != 0 || a.LatencySum != 0 {
			t.Fatalf("%s: latency stats without dispatched events", a.App)
		}
		inj += a.Injected
		disp += a.Dispatched
		drop += a.Dropped
	}
	if inj != r.InputEvents || disp != r.InputDispatched || drop != r.InputDropped {
		t.Fatalf("per-app sums (%d/%d/%d) diverge from session totals (%d/%d/%d)",
			inj, disp, drop, r.InputEvents, r.InputDispatched, r.InputDropped)
	}
}

// TestInputLibraryScenariosDispatchAndDrop pins the acceptance bar on the two
// bundled input-heavy sessions: both must dispatch real events (with latency
// statistics) and drop the deliberately-stale ones, under the consistent
// accounting invariant.
func TestInputLibraryScenariosDispatchAndDrop(t *testing.T) {
	for _, name := range []string{"thumb-scroll", "arcade-rally"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.RunScenarioDef(sc, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		inputTotalsConsistent(t, r.Session)
		if r.Session.InputEvents == 0 {
			t.Fatalf("%s: no input injected", name)
		}
		if r.Session.InputDispatched == 0 {
			t.Fatalf("%s: nothing dispatched", name)
		}
		if r.Session.InputDropped == 0 {
			t.Fatalf("%s: scripted stale gestures were not dropped", name)
		}
		var sawLatency bool
		for _, a := range r.Session.InputApps {
			if a.Dispatched > 0 && a.LatencySum > 0 {
				sawLatency = true
			}
		}
		if !sawLatency {
			t.Fatalf("%s: no dispatch-latency statistics recorded", name)
		}
	}
}

// TestInputToUnfocusedAppDropsDeterministically: gestures aimed at an app
// that lost the foreground are dropped by the InputDispatcher — and two runs
// of the session agree on every counter and on the full counter matrix.
func TestInputToUnfocusedAppDropsDeterministically(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "stale-taps",
		Apps: []scenario.App{
			{Name: "note", Workload: "countdown.main"},
			{Name: "game", Workload: "frozenbubble.main"},
		},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "note"},
			{At: 100, Kind: scenario.Launch, App: "game"}, // note loses the focus
			{At: 300, Kind: scenario.Tap, App: "note"},
			{At: 450, Kind: scenario.Tap, App: "note"},
			{At: 600, Kind: scenario.Key, App: "note"},
		},
	}
	a, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	inputTotalsConsistent(t, a.Session)
	if a.Session.InputEvents != 5 || a.Session.InputDropped != 5 || a.Session.InputDispatched != 0 {
		t.Fatalf("unfocused gestures not all dropped: %d/%d/%d",
			a.Session.InputEvents, a.Session.InputDispatched, a.Session.InputDropped)
	}
	if a.Session.InputDropped != b.Session.InputDropped || a.Session.InputDispatched != b.Session.InputDispatched {
		t.Fatalf("drop accounting nondeterministic: %d/%d vs %d/%d",
			a.Session.InputDispatched, a.Session.InputDropped, b.Session.InputDispatched, b.Session.InputDropped)
	}
	if a.Stats.Fingerprint() != b.Stats.Fingerprint() {
		t.Fatal("input-bearing session is not seed-deterministic")
	}
	if !reflect.DeepEqual(a.Session.InputApps, b.Session.InputApps) {
		t.Fatalf("per-app input stats diverged:\n%v\n%v", a.Session.InputApps, b.Session.InputApps)
	}
}

// TestInputMidKillAndFinalTickNeverPanic covers the two hostile edges: a
// gesture racing its target's kill (applied the same timeline instant) and a
// gesture at At=1000, the final measured tick. Both must be dropped and
// counted — never a panic, never an unaccounted event.
func TestInputMidKillAndFinalTickNeverPanic(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "kill-race",
		Apps: []scenario.App{{Name: "game", Workload: "frozenbubble.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 200, Kind: scenario.Tap, App: "game"},
			{At: 500, Kind: scenario.Kill, App: "game"},
			{At: 500, Kind: scenario.Tap, App: "game"},    // races the kill
			{At: 600, Kind: scenario.Key, App: "game"},    // dead target
			{At: 1000, Kind: scenario.Swipe, App: "game"}, // final measured tick
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("input events at dead apps must validate: %v", err)
	}
	r, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	inputTotalsConsistent(t, r.Session)
	// tap(2) + tap(2) + key(1) + swipe(5) = 10 samples; everything from
	// the kill onward (8 samples) must be dropped.
	if r.Session.InputEvents != 10 {
		t.Fatalf("injected %d samples, want 10", r.Session.InputEvents)
	}
	if r.Session.InputDropped < 8 {
		t.Fatalf("only %d samples dropped, want >= 8 (kill race, dead target, final tick)",
			r.Session.InputDropped)
	}
	r2, err := core.RunScenarioDef(sc, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Session.InputDropped != r2.Session.InputDropped || r.Stats.Fingerprint() != r2.Stats.Fingerprint() {
		t.Fatal("kill-race session is not deterministic")
	}
}

// TestDispatchedInputChangesMeasuredBehavior: the point of driving input
// through the stack is that delivered gestures do real work. The same
// session with taps must attribute strictly more references to the target
// app than the tap-free control.
func TestDispatchedInputChangesMeasuredBehavior(t *testing.T) {
	base := &scenario.Scenario{
		Name: "control",
		Apps: []scenario.App{{Name: "game", Workload: "frozenbubble.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 500, Kind: scenario.Idle},
		},
	}
	tapped := &scenario.Scenario{
		Name: "tapped",
		Apps: []scenario.App{{Name: "game", Workload: "frozenbubble.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 250, Kind: scenario.Tap, App: "game"},
			{At: 350, Kind: scenario.Tap, App: "game"},
			{At: 450, Kind: scenario.Swipe, App: "game"},
			{At: 500, Kind: scenario.Idle},
		},
	}
	rb, err := core.RunScenarioDef(base, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.RunScenarioDef(tapped, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Session.InputDispatched == 0 {
		t.Fatalf("no tap reached the foreground game (dropped %d)", rt.Session.InputDropped)
	}
	refs := func(r *core.Result) uint64 {
		var n uint64
		for name, c := range r.Stats.ByProcess() {
			if name == "game" {
				n += c
			}
		}
		return n
	}
	if refs(rt) <= refs(rb) {
		t.Fatalf("dispatched input did not move the app's profile: %d refs with taps, %d without",
			refs(rt), refs(rb))
	}
}

// TestGeneratorInputsKnob: the Inputs knob weaves tap/key/swipe events into
// a valid timeline, the knob value lands in the scenario name, and the
// session runs with consistent input accounting.
func TestGeneratorInputsKnob(t *testing.T) {
	cfg := scenario.GenConfig{Seed: 5, Apps: 3, Events: 12, Inputs: 10}
	s := scenario.Generate(cfg)
	if err := s.Validate(); err != nil {
		t.Fatalf("generated input session invalid: %v", err)
	}
	if s.Name != "gen-s5-a3-e12-p0-i10-f0" {
		t.Fatalf("name = %q", s.Name)
	}
	var gestures int
	for _, ev := range s.Timeline {
		switch ev.Kind {
		case scenario.Tap, scenario.Key, scenario.Swipe:
			gestures++
		}
	}
	if gestures != 10 {
		t.Fatalf("generated %d input gestures, want 10", gestures)
	}
	// Same config, same bytes: the generator stays a pure function.
	if !reflect.DeepEqual(s, scenario.Generate(cfg)) {
		t.Fatal("input-bearing generation is not deterministic")
	}
	r, err := core.RunScenarioDef(s, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	inputTotalsConsistent(t, r.Session)
	if r.Session.InputEvents == 0 {
		t.Fatal("generated gestures injected nothing")
	}
}
