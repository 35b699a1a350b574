package scenario

import (
	"go/build"
	"testing"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/sim"
)

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
	a := apps.LaunchAs(sys, w, "game")
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

// TestScenarioPackageIsTheDocument pins the package boundary: scenario is
// the session document — model, validation, codec, generator and library —
// and the engine that runs it lives in core. Its non-test files import
// none of the simulated machine's packages, nor core.
func TestScenarioPackageIsTheDocument(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		switch imp {
		case "agave/internal/android", "agave/internal/kernel", "agave/internal/stats", "agave/internal/core":
			t.Errorf("non-test files import %s", imp)
		}
	}
}
