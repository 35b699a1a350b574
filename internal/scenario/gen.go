// Seeded procedural scenario generation: the suite's answer to "as many
// scenarios as you can imagine". The bundled library is twelve hand-written
// sessions; Generate turns scenario diversity into a sweep axis instead — a
// (seed, app count, event density, pressure, inputs, faults) tuple deterministically
// expands into a valid multi-app session, so a plan can cross N generated
// sessions with seeds and ablations exactly as it crosses bundled ones, and
// any interesting point of the space can be pinned down, exported to JSON
// with Encode, and committed as a regression scenario.

package scenario

import (
	"fmt"
	"sort"

	"agave/internal/apps"
	"agave/internal/sim"
)

// GenConfig parameterizes one generated scenario. The zero value of each
// knob selects a sensible default, so GenConfig{Seed: 7} alone is a valid
// request.
type GenConfig struct {
	// Seed drives every generation decision; equal configs generate
	// byte-identical scenarios (the generator is a pure function).
	Seed uint64
	// Apps is the session's app count. Every app is launched before the
	// first kill, so this is also the peak concurrently-live census —
	// MaxLiveApps of the generated scenario is exactly Apps. <= 0 selects
	// the 10-app default, the "scale the session dimension" bar.
	Apps int
	// Events is the timeline length (event density). Values below Apps+2
	// are raised to Apps+2: the timeline must at least launch every app
	// and still have room to exercise a lifecycle transition. <= 0 selects
	// four events per app.
	Events int
	// Pressure scales the external memory demand woven into the timeline:
	// 0 generates no Pressure events, 1 stays in onTrimMemory territory on
	// the default machine, higher values push free pages toward the
	// lowmemorykiller's minfree ladder. Negative values are treated as 0.
	Pressure int
	// Inputs is the number of input-gesture events (tap/key/swipe) woven
	// into the timeline on top of the Events lifecycle budget, each aimed
	// at a random roster app. Gestures aimed at whoever happens to be
	// focused are dispatched; the rest are dropped and counted — both
	// outcomes are part of the session's measured profile. <= 0 generates
	// no input events.
	Inputs int
	// Faults is the number of fault-injection events (faultBinder,
	// crashService, corruptParcel, killMediaserver) woven into the
	// timeline on top of the Events budget. Targeted faults aim at apps
	// the lifecycle script has live at that instant, so the generated
	// scenario always validates; a fault drawn where nothing is live
	// becomes a mediaserver kill. <= 0 generates no fault events.
	Faults int
}

// DefaultGenApps is the default generated-session scale: 10 concurrently
// live apps.
const DefaultGenApps = 10

// normalize resolves the config's defaults and floors.
func (cfg GenConfig) normalize() GenConfig {
	if cfg.Apps <= 0 {
		cfg.Apps = DefaultGenApps
	}
	if cfg.Events <= 0 {
		cfg.Events = 4 * cfg.Apps
	}
	if cfg.Events < cfg.Apps+2 {
		cfg.Events = cfg.Apps + 2
	}
	if cfg.Pressure < 0 {
		cfg.Pressure = 0
	}
	if cfg.Inputs < 0 {
		cfg.Inputs = 0
	}
	if cfg.Faults < 0 {
		cfg.Faults = 0
	}
	return cfg
}

// Name is the generated scenario's identifier: the full knob tuple, so a
// name alone reproduces the session ("gen-s7-a10-e40-p2-i12-f3").
func (cfg GenConfig) Name() string {
	cfg = cfg.normalize()
	return fmt.Sprintf("gen-s%d-a%d-e%d-p%d-i%d-f%d",
		cfg.Seed, cfg.Apps, cfg.Events, cfg.Pressure, cfg.Inputs, cfg.Faults)
}

// Generate deterministically expands the config into a valid scenario:
// every app (workload drawn from the Agave suite) is launched in the
// timeline's opening phase, then the remaining event budget is spent on
// legal lifecycle churn — switches, backgrounds, kill/relaunch cycles,
// idle gaps, and (when Pressure > 0) external memory demand — plus the
// requested input gestures and injected faults. The result
// always passes Validate, and its MaxLiveApps equals the requested app
// count; generation cannot fail.
func Generate(cfg GenConfig) *Scenario {
	cfg = cfg.normalize()
	rng := sim.NewRNG(cfg.Seed)
	workloads := apps.Names()

	s := &Scenario{
		Name: cfg.Name(),
		Description: fmt.Sprintf("generated session: %d apps, %d events, pressure %d, %d inputs, %d faults, seed %d",
			cfg.Apps, cfg.Events, cfg.Pressure, cfg.Inputs, cfg.Faults, cfg.Seed),
		Source: fmt.Sprintf("gen(seed=%d apps=%d events=%d pressure=%d inputs=%d faults=%d)",
			cfg.Seed, cfg.Apps, cfg.Events, cfg.Pressure, cfg.Inputs, cfg.Faults),
	}
	for i := 0; i < cfg.Apps; i++ {
		s.Apps = append(s.Apps, App{
			Name:     fmt.Sprintf("app%02d", i),
			Workload: workloads[rng.Intn(len(workloads))],
		})
	}

	// Event times: a sorted draw over the whole interval reads more like a
	// real session than an even grid. Equal adjacent times are legal (the
	// timeline only has to be nondecreasing).
	times := make([]Fraction, cfg.Events)
	for i := range times {
		times[i] = Fraction(rng.Intn(1001))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	// Opening phase: launch everything. All apps are live before the first
	// churn event, which is what pins MaxLiveApps to the requested scale.
	live := make([]string, 0, cfg.Apps)
	dead := make([]string, 0, cfg.Apps)
	for i, a := range s.Apps {
		s.Timeline = append(s.Timeline, Event{At: times[i], Kind: Launch, App: a.Name})
		live = append(live, a.Name)
	}

	// pick removes and returns a random element of *from.
	pick := func(from *[]string) string {
		i := rng.Intn(len(*from))
		name := (*from)[i]
		*from = append((*from)[:i], (*from)[i+1:]...)
		return name
	}

	// Churn phase: spend the remaining budget on legal transitions. Weights
	// favor foreground hops — the notification-chasing pattern the paper's
	// multi-app argument rests on — with kills rare enough that most of the
	// roster stays live.
	for i := cfg.Apps; i < cfg.Events; i++ {
		at := times[i]
		roll := rng.Intn(100)
		switch {
		case cfg.Pressure > 0 && roll < 15:
			// External demand scaled by the pressure knob; occasional
			// deflation so long sessions breathe.
			pages := int64(rng.Range(8_000, 20_000) * cfg.Pressure)
			if rng.Bool(0.2) {
				pages = -pages / 2
			}
			s.Timeline = append(s.Timeline, Event{At: at, Kind: Pressure, Pages: pages})
		case roll < 25:
			s.Timeline = append(s.Timeline, Event{At: at, Kind: Idle})
		case roll < 40 && len(dead) > 0:
			// Relaunch a killed app: zygote fork and binder re-registration
			// under churn. Live count returns toward the peak, never past it.
			name := pick(&dead)
			s.Timeline = append(s.Timeline, Event{At: at, Kind: Launch, App: name})
			live = append(live, name)
		case roll < 50 && len(live) > 1:
			// Kill one live app; keep at least one alive so the session
			// never degenerates into pure idle.
			name := pick(&live)
			s.Timeline = append(s.Timeline, Event{At: at, Kind: Kill, App: name})
			dead = append(dead, name)
		case roll < 70 && len(live) > 0:
			s.Timeline = append(s.Timeline, Event{At: at, Kind: Background, App: live[rng.Intn(len(live))]})
		case len(live) > 0:
			s.Timeline = append(s.Timeline, Event{At: at, Kind: SwitchTo, App: live[rng.Intn(len(live))]})
		default:
			s.Timeline = append(s.Timeline, Event{At: at, Kind: Idle})
		}
	}

	// Input phase: weave cfg.Inputs gestures over the whole interval. Most
	// aim at whoever the script has in the foreground at that moment (the
	// user touches the screen they are looking at), the rest at a random
	// roster app — stale taps chasing backgrounded apps are part of any
	// real session, and the dispatcher's drop accounting is itself a
	// measured outcome. The stable merge keeps the lifecycle script's
	// relative order at equal times.
	if cfg.Inputs > 0 {
		background := make(map[string]bool, len(s.Apps))
		for _, a := range s.Apps {
			if w, err := apps.ByName(a.Workload); err == nil {
				background[a.Name] = w.Background
			}
		}
		// focusTrace replays the lifecycle script's foreground handoffs:
		// launches and switches of UI workloads take the focus, killing or
		// backgrounding the holder clears it.
		type focusAt struct {
			at  Fraction
			app string
		}
		var focusTrace []focusAt
		holder := ""
		for _, ev := range s.Timeline {
			switch ev.Kind {
			case Launch, SwitchTo:
				if !background[ev.App] {
					holder = ev.App
					focusTrace = append(focusTrace, focusAt{ev.At, holder})
				} else if ev.Kind == SwitchTo && holder != "" {
					// The engine pauses the current foreground app on any
					// switch, but a background workload never takes the
					// focus slot — nobody holds it afterwards.
					holder = ""
					focusTrace = append(focusTrace, focusAt{ev.At, ""})
				}
			case Kill, Background:
				if ev.App == holder {
					holder = ""
					focusTrace = append(focusTrace, focusAt{ev.At, ""})
				}
			}
		}
		focusedAt := func(at Fraction) string {
			f := ""
			for _, fc := range focusTrace {
				if fc.at > at {
					break
				}
				f = fc.app
			}
			return f
		}
		for i := 0; i < cfg.Inputs; i++ {
			at := Fraction(rng.Intn(1001))
			target := s.Apps[rng.Intn(len(s.Apps))].Name
			if f := focusedAt(at); f != "" && !rng.Bool(0.3) {
				target = f
			}
			kind := Tap
			switch roll := rng.Intn(100); {
			case roll < 55:
				kind = Tap
			case roll < 80:
				kind = Key
			default:
				kind = Swipe
			}
			s.Timeline = append(s.Timeline, Event{At: at, Kind: kind, App: target})
		}
		sort.SliceStable(s.Timeline, func(i, j int) bool {
			return s.Timeline[i].At < s.Timeline[j].At
		})
	}

	// Fault phase: weave cfg.Faults injection events over the interval.
	// Targeted faults must aim at an app the lifecycle script has live at
	// that instant (the validator's rule), so targets are drawn from the
	// script's live spans; a draw landing where nothing is live falls back
	// to killMediaserver, which names no app and is always legal. The
	// stable merge places a fault after every lifecycle event at the same
	// time, so spans use a half-open [launch, kill) interval: a fault at
	// its target's launch instant lands after the launch (legal), one at
	// the kill instant would land after the kill (excluded).
	if cfg.Faults > 0 {
		type span struct {
			app      string
			from, to Fraction
		}
		var spans []span
		launchedAt := make(map[string]Fraction, len(s.Apps))
		for _, ev := range s.Timeline {
			switch ev.Kind {
			case Launch:
				launchedAt[ev.App] = ev.At
			case Kill:
				spans = append(spans, span{ev.App, launchedAt[ev.App], ev.At})
				delete(launchedAt, ev.App)
			}
		}
		// Apps still live at the end stay targetable through At=1000;
		// close their spans in roster order for determinism.
		for _, a := range s.Apps {
			if from, ok := launchedAt[a.Name]; ok {
				spans = append(spans, span{a.Name, from, 1001})
			}
		}
		for i := 0; i < cfg.Faults; i++ {
			at := Fraction(rng.Intn(1001))
			var candidates []string
			for _, sp := range spans {
				if sp.from <= at && at < sp.to {
					candidates = append(candidates, sp.app)
				}
			}
			kind, target := KillMediaserver, ""
			if roll := rng.Intn(100); roll >= 15 && len(candidates) > 0 {
				target = candidates[rng.Intn(len(candidates))]
				switch {
				case roll < 50:
					kind = FaultBinder
				case roll < 80:
					kind = CorruptParcel
				default:
					kind = CrashService
				}
			}
			s.Timeline = append(s.Timeline, Event{At: at, Kind: kind, App: target})
		}
		sort.SliceStable(s.Timeline, func(i, j int) bool {
			return s.Timeline[i].At < s.Timeline[j].At
		})
	}
	return s
}
