package scenario

import (
	"reflect"
	"testing"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/sim"
)

func quickCfg() Config {
	return Config{
		Seed:     1,
		Duration: 150 * sim.Millisecond,
		Warmup:   80 * sim.Millisecond,
		Quantum:  sim.Millisecond,
	}
}

func TestLibraryValidatesAndCoversTheBar(t *testing.T) {
	lib := Library()
	if len(lib) < 5 {
		t.Fatalf("library has %d scenarios, want >= 5", len(lib))
	}
	maxLive := 0
	seen := make(map[string]bool)
	for _, s := range lib {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("%s: empty description", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if ml := s.MaxLiveApps(); ml > maxLive {
			maxLive = ml
		}
	}
	if maxLive < 3 {
		t.Fatalf("no scenario reaches 3 concurrently-live apps (max %d)", maxLive)
	}
}

func TestValidateRejectsIllFormedTimelines(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name: "t",
			Apps: []App{{Name: "a", Workload: "countdown.main"}},
			Timeline: []Event{
				{At: 0, Kind: Launch, App: "a"},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"unknown workload", func(s *Scenario) { s.Apps[0].Workload = "no.such" }},
		{"reserved app name", func(s *Scenario) {
			s.Apps[0].Name = "launcher"
			s.Timeline[0].App = "launcher"
		}},
		{"duplicate app", func(s *Scenario) { s.Apps = append(s.Apps, s.Apps[0]) }},
		{"empty timeline", func(s *Scenario) { s.Timeline = nil }},
		{"unordered timeline", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 500, Kind: Background, App: "a"},
				Event{At: 100, Kind: SwitchTo, App: "a"})
		}},
		{"double launch", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: Launch, App: "a"})
		}},
		{"switch to dead app", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: Kill, App: "a"},
				Event{At: 200, Kind: SwitchTo, App: "a"})
		}},
		{"kill before launch", func(s *Scenario) {
			s.Timeline = []Event{{At: 0, Kind: Kill, App: "a"}}
		}},
		{"undeclared target", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: SwitchTo, App: "ghost"})
		}},
		{"idle with app", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: Idle, App: "a"})
		}},
		{"fraction out of range", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 1500, Kind: Background, App: "a"})
		}},
		{"pressure with app", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: Pressure, App: "a", Pages: 100})
		}},
		{"pressure without pages", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: Pressure})
		}},
		{"page delta on non-pressure event", func(s *Scenario) {
			s.Timeline = append(s.Timeline, Event{At: 100, Kind: Background, App: "a", Pages: 100})
		}},
	}
	for _, c := range cases {
		s := base()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

// TestRunIsSeedDeterministic is the core guarantee: a scenario is a
// measurement, so two runs with equal seeds must produce bit-identical
// attributed counters even across launches, switches, and kills.
func TestRunIsSeedDeterministic(t *testing.T) {
	sc, err := ByName("commute")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, quickCfg())
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
	longer := quickCfg()
	longer.Duration += 50 * sim.Millisecond
	c, err := Run(sc, longer)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Fingerprint() == a.Stats.Fingerprint() {
		t.Fatal("longer run produced an identical fingerprint")
	}
}

// TestEventAtClampsToMeasuredInterval pins the boundary fix: the measured
// interval is half-open, so At=1000 resolves to the final measured tick
// (start+duration-1), never to start+duration — one tick past the last
// measured one, where the event's effects would fall outside the
// measurement.
func TestEventAtClampsToMeasuredInterval(t *testing.T) {
	const start, duration = 1000, 500
	for _, tc := range []struct {
		at   Fraction
		want sim.Ticks
	}{
		{0, start},
		{500, start + 250},
		{999, start + duration*999/1000},
		{1000, start + duration - 1},
	} {
		if got := (Event{At: tc.at}).at(start, duration); got != tc.want {
			t.Errorf("At=%d resolves to %d, want %d", tc.at, got, tc.want)
		}
	}
	// Degenerate one-tick interval: everything lands on the only tick.
	if got := (Event{At: 1000}).at(7, 1); got != 7 {
		t.Errorf("At=1000 of a 1-tick interval resolves to %d, want 7", got)
	}
}

// TestEndOfIntervalEventFires guards the half-open-interval edge: the
// kernel stops the instant the deadline is reached, so an event scripted at
// At=1000 must land on the interval's last tick, not one past it.
func TestEndOfIntervalEventFires(t *testing.T) {
	sc := &Scenario{
		Name:        "edge",
		Description: "kill on the final tick",
		Apps:        []App{{Name: "note", Workload: "countdown.main"}},
		Timeline: []Event{
			{At: 0, Kind: Launch, App: "note"},
			{At: 1000, Kind: Kill, App: "note"},
		},
	}
	res, err := Run(sc, quickCfg())
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
	sc, err := ByName("social-burst")
	if err != nil {
		t.Fatal(err)
	}
	if sc.MaxLiveApps() < 3 {
		t.Fatalf("social-burst holds %d live apps, want >= 3", sc.MaxLiveApps())
	}
	res, err := Run(sc, quickCfg())
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
	if res.MaxLive < 3 {
		t.Errorf("result MaxLive = %d, want >= 3", res.MaxLive)
	}
}

// TestKillTearsProcessesDown runs the kill-heavy scenarios and checks the
// census: killed incarnations stay in the process count (as all spawned
// processes do) while the live count drops below it.
func TestKillTearsProcessesDown(t *testing.T) {
	for _, name := range []string{"media-marathon", "app-churn"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.LiveProcesses >= res.Processes {
			t.Errorf("%s: live processes %d not below total %d after kills",
				name, res.LiveProcesses, res.Processes)
		}
		if res.Events != len(sc.Timeline) {
			t.Errorf("%s: applied %d events, want %d", name, res.Events, len(sc.Timeline))
		}
	}
}

// TestMemoryStormEmergentKills is the tentpole acceptance bar: the
// memory-storm timeline scripts no Kill event at all, yet under its Pressure
// events the lowmemorykiller must evict processes — cached apps before the
// perceptible/visible band, and never the foreground app. Kill timing and
// victim identity are decided by the kernel, not the script.
func TestMemoryStormEmergentKills(t *testing.T) {
	sc, err := ByName("memory-storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sc.Timeline {
		if ev.Kind == Kill {
			t.Fatalf("memory-storm scripts a kill: %s", ev)
		}
	}
	res, err := Run(sc, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.LMKKills < 1 {
		t.Fatal("memory-storm produced no lowmemorykiller kill")
	}
	if res.LMKKills != len(res.LMKVictims) {
		t.Fatalf("kill count %d != victims %v", res.LMKKills, res.LMKVictims)
	}
	pos := make(map[string]int)
	for i, v := range res.LMKVictims {
		if v == "game" {
			t.Fatalf("foreground app killed: victims %v", res.LMKVictims)
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
					v, c, res.LMKVictims)
			}
		}
	}
	if _, ok := pos["dict"]; !ok {
		t.Fatalf("LRU-oldest cached app survived the storm: victims %v", res.LMKVictims)
	}
	if res.Trims == 0 {
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
	sc, err := ByName("cached-app-eviction")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trims == 0 {
		t.Fatal("moderate pressure delivered no onTrimMemory callbacks")
	}
	if res.LMKKills < 1 {
		t.Fatal("deep pressure killed nothing")
	}
	if res.LMKVictims[0] != "notes" {
		t.Fatalf("first victim = %q, want the LRU-oldest cached app %q (victims %v)",
			res.LMKVictims[0], "notes", res.LMKVictims)
	}
	for _, v := range res.LMKVictims {
		if v == "reader" || v == "game" {
			t.Fatalf("recently-used or foreground app evicted: %v", res.LMKVictims)
		}
	}
}

// TestScenarioRunsStayKillFreeWithoutPressure guards the bundled library's
// backward compatibility: the pressure model is always on for scenarios, but
// with the default budget no non-Pressure scenario comes close to the
// minfree ladder.
func TestScenarioRunsStayKillFreeWithoutPressure(t *testing.T) {
	for _, name := range []string{"commute", "social-burst", "app-churn"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.LMKKills != 0 || res.Trims != 0 {
			t.Errorf("%s: unexpected pressure activity: %d kills %v, %d trims",
				name, res.LMKKills, res.LMKVictims, res.Trims)
		}
	}
}

// TestMinFreeKnobTightensTheKiller pins the -minfree plumbing: raising the
// waterline makes a previously-safe session come under pressure.
func TestMinFreeKnobTightensTheKiller(t *testing.T) {
	sc, err := ByName("social-burst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.MinFreePages = 120_000 // absurdly high waterline: everything is pressure
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LMKKills == 0 && res.Trims == 0 {
		t.Fatal("raised minfree waterline produced no pressure response")
	}
}

// TestPauseParksForegroundApp drives the looper lifecycle directly: after
// PauseApp the app's main thread must park (Paused) and its surface leave
// composition; after ResumeApp it must come back.
func TestPauseParksForegroundApp(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	sys := android.Boot(k)
	w, err := apps.ByName("frozenbubble.main")
	if err != nil {
		t.Fatal(err)
	}
	a := apps.LaunchAs(sys, w, "game", false)
	k.Run(80 * sim.Millisecond)
	if a.Paused() {
		t.Fatal("app paused before any pause request")
	}
	// Drive the transition from a driver thread, as the engine does.
	k.SpawnThread(sys.SystemServer, "driver", "driver", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		sys.PauseApp(ex, a)
		ex.SleepFor(60 * sim.Millisecond)
		sys.ResumeApp(ex, a)
		ex.SleepFor(40 * sim.Millisecond)
		sys.KillApp(ex, a)
	})
	k.Run(120 * sim.Millisecond)
	if !a.Paused() {
		t.Fatal("app not parked after PauseApp")
	}
	if a.Surface == nil || a.Surface.Visible {
		t.Fatal("paused app's surface still visible")
	}
	k.Run(180 * sim.Millisecond)
	if a.Paused() {
		t.Fatal("app still parked after ResumeApp")
	}
	if !a.Surface.Visible {
		t.Fatal("resumed app's surface not visible")
	}
	k.Run(260 * sim.Millisecond)
	if !a.Dead || a.Proc.LiveThreads() != 0 {
		t.Fatalf("killed app alive: dead=%v liveThreads=%d", a.Dead, a.Proc.LiveThreads())
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
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Run(sc, quickCfg())
		if err != nil {
			t.Fatalf("%s: cold run: %v", name, err)
		}
		for i := 0; i < 2; i++ {
			warm, err := Run(sc, quickCfg())
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
