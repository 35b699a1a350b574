// Scenario-shaped output: per-run rows and per-app attribution for scripted
// multi-app sessions. Unlike the suite matrix, scenario reports carry no
// wall-clock or throughput columns — every field is a pure function of
// (scenario, seed, ablation), so two invocations of the same plan emit
// byte-identical reports regardless of worker count or machine load. That
// property is what lets the CLI's -parallel flag be a pure speed knob.

package report

import (
	"encoding/json"
	"fmt"
	"io"

	"agave/internal/android"
	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
	"agave/internal/suite"
)

// ScenarioAppRow is one scenario app's attribution within a run, plus —
// when the session injected input — the app's input-delivery outcome.
type ScenarioAppRow struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Refs     uint64  `json:"refs"`
	Share    float64 `json:"share"`
	// InputDispatched/InputDropped count the input samples aimed at this
	// app that its main thread handled vs. never saw; the latency fields
	// aggregate end-to-end dispatch latency (injection to handler start)
	// over the dispatched samples, in microseconds of simulated time.
	// All omitted when no input was aimed at the app.
	InputDispatched    int     `json:"input_dispatched,omitempty"`
	InputDropped       int     `json:"input_dropped,omitempty"`
	InputLatencyMeanUS float64 `json:"input_latency_mean_us,omitempty"`
	InputLatencyMaxUS  float64 `json:"input_latency_max_us,omitempty"`
	// ANRs counts Application Not Responding episodes the watchdog raised
	// against this app; omitted when the app never blocked.
	ANRs int `json:"anrs,omitempty"`
}

// ScenarioRow is one completed scenario run, flattened for rendering. All
// fields are deterministic for a (scenario, seed, ablation) triple.
type ScenarioRow struct {
	Scenario string `json:"scenario"`
	// Source is the scenario definition's provenance: omitted for bundled
	// library sessions, "file:<name>" for scenario documents loaded from
	// disk, "gen(...)" for generator output. Provenance never appears in
	// the text matrix, so a file-loaded copy of a bundled scenario renders
	// a byte-identical default report.
	Source        string `json:"source,omitempty"`
	Seed          uint64 `json:"seed"`
	Ablation      string `json:"ablation"`
	Events        int    `json:"events"`
	MaxLiveApps   int    `json:"max_live_apps"`
	TotalRefs     uint64 `json:"total_refs"`
	Processes     int    `json:"processes"`
	LiveProcesses int    `json:"live_processes"`
	Threads       int    `json:"threads"`
	CodeRegions   int    `json:"code_regions"`
	DataRegions   int    `json:"data_regions"`
	// LMKKills/LMKVictims/Trims are the memory-pressure outcome of the
	// session: lowmemorykiller process kills (in kill order) and
	// onTrimMemory callbacks delivered. All deterministic per
	// (scenario, seed, ablation).
	LMKKills   int      `json:"lmk_kills"`
	LMKVictims []string `json:"lmk_victims,omitempty"`
	Trims      int      `json:"trims"`
	// InputEvents/InputDispatched/InputDropped are the session's input
	// totals: samples injected through the InputDispatcher, samples an
	// app's main thread handled, and samples dropped (unfocused, paused,
	// or dead targets, plus anything still in flight at the end).
	// InputEvents == InputDispatched + InputDropped; all deterministic
	// per (scenario, seed, ablation).
	InputEvents     int `json:"input_events"`
	InputDispatched int `json:"input_dispatched"`
	InputDropped    int `json:"input_dropped"`
	// The dependability section: fault events that fired, injected
	// failures some code observed and survived, completed recovery
	// actions, and watchdog-raised ANRs. All deterministic per
	// (scenario, seed, ablation).
	FaultsInjected  int              `json:"faults_injected"`
	FaultsDetected  int              `json:"faults_detected"`
	FaultsRecovered int              `json:"faults_recovered"`
	ANRs            int              `json:"anrs"`
	Fingerprint     uint64           `json:"fingerprint"`
	Apps            []ScenarioAppRow `json:"apps"`
}

// ScenarioRows flattens scenario suite outputs (skipping failed runs and
// non-scenario specs) in plan order. Session-level fields — provenance,
// event count, peak live apps, the per-app attribution roster — come from
// the scenario the run carries, so rows describe the session that actually
// executed (bundled or not), never a registry lookup.
func ScenarioRows(outputs []suite.RunOutput[*core.Result]) []ScenarioRow {
	rows := make([]ScenarioRow, 0, len(outputs))
	for _, o := range outputs {
		if o.Err != nil || o.Result == nil || !o.Spec.Scenario {
			continue
		}
		r := o.Result
		row := ScenarioRow{
			Scenario:      r.Benchmark,
			Seed:          o.Spec.Seed,
			Ablation:      o.Spec.Ablation.Label(),
			TotalRefs:     r.Stats.Total(),
			Processes:     r.Processes,
			LiveProcesses: r.LiveProcesses,
			Threads:       r.Threads,
			CodeRegions:   r.CodeRegions,
			DataRegions:   r.DataRegions,
			Fingerprint:   r.Stats.Fingerprint(),
		}
		if s := r.Session; s != nil {
			row.Source = s.Scenario.Source
			row.Events = len(s.Scenario.Timeline)
			row.MaxLiveApps = s.Scenario.MaxLiveApps()
			row.LMKKills = s.LMKKills
			row.LMKVictims = append([]string(nil), s.LMKVictims...)
			row.Trims = s.Trims
			row.InputEvents = s.InputEvents
			row.InputDispatched = s.InputDispatched
			row.InputDropped = s.InputDropped
			row.FaultsInjected = s.FaultsInjected
			row.FaultsDetected = s.FaultsDetected
			row.FaultsRecovered = s.FaultsRecovered
			row.ANRs = s.ANRs
			inputs := make(map[string]android.InputAppStats, len(s.InputApps))
			for _, st := range s.InputApps {
				inputs[st.App] = st
			}
			byProc := stats.NewBreakdown(r.Stats.ByProcess())
			for _, app := range s.Scenario.Apps {
				appRow := ScenarioAppRow{
					Name:     app.Name,
					Workload: app.Workload,
					Refs:     byProc.Count(app.Name),
					Share:    byProc.Share(app.Name),
				}
				if st, ok := inputs[app.Name]; ok {
					appRow.InputDispatched = st.Dispatched
					appRow.InputDropped = st.Dropped
					if st.Dispatched > 0 {
						appRow.InputLatencyMeanUS = float64(st.LatencySum) /
							float64(st.Dispatched) / float64(sim.Microsecond)
						appRow.InputLatencyMaxUS = float64(st.LatencyMax) / float64(sim.Microsecond)
					}
					appRow.ANRs = st.ANRs
				}
				row.Apps = append(row.Apps, appRow)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteScenarioMatrix renders one line per scenario run plus an indented
// per-app attribution block — the multi-app counterpart of WriteMatrix,
// minus every non-deterministic column.
func WriteScenarioMatrix(w io.Writer, outputs []suite.RunOutput[*core.Result]) {
	fmt.Fprintf(w, "%-20s %6s %-10s %7s %12s %11s %8s %8s %8s %5s %5s %6s %6s %5s %5s %5s %5s\n",
		"scenario", "seed", "ablation", "events", "total refs", "procs", "live", "threads", "regions",
		"lmk", "trims", "indisp", "indrop", "finj", "fdet", "frec", "anrs")
	for _, r := range ScenarioRows(outputs) {
		fmt.Fprintf(w, "%-20s %6d %-10s %7d %12d %11d %8d %8d %8d %5d %5d %6d %6d %5d %5d %5d %5d\n",
			r.Scenario, r.Seed, r.Ablation, r.Events, r.TotalRefs,
			r.Processes, r.LiveProcesses, r.Threads, r.CodeRegions+r.DataRegions,
			r.LMKKills, r.Trims, r.InputDispatched, r.InputDropped,
			r.FaultsInjected, r.FaultsDetected, r.FaultsRecovered, r.ANRs)
		for _, a := range r.Apps {
			fmt.Fprintf(w, "    %-14s %-22s %12d %6.2f%%", a.Name, a.Workload, a.Refs, a.Share*100)
			if a.InputDispatched > 0 || a.InputDropped > 0 {
				fmt.Fprintf(w, "  in=%d drop=%d", a.InputDispatched, a.InputDropped)
				if a.InputDispatched > 0 {
					fmt.Fprintf(w, " lat mean=%.1fus max=%.1fus", a.InputLatencyMeanUS, a.InputLatencyMaxUS)
				}
			}
			if a.ANRs > 0 {
				fmt.Fprintf(w, " anr=%d", a.ANRs)
			}
			fmt.Fprintln(w)
		}
		if len(r.LMKVictims) > 0 {
			fmt.Fprintf(w, "    lmk victims: %v\n", r.LMKVictims)
		}
	}
}

// scenarioPlanJSON is the plan half of a scenario sweep document.
type scenarioPlanJSON struct {
	Scenarios []string `json:"scenarios"`
	Seeds     []uint64 `json:"seeds"`
	Ablations []string `json:"ablations"`
}

// scenarioJSON is the top-level JSON document of a scenario sweep. The
// worker count is deliberately absent: it cannot influence any byte of the
// document.
type scenarioJSON struct {
	Plan scenarioPlanJSON `json:"plan"`
	Runs []ScenarioRow    `json:"runs"`
}

// WriteScenarioJSON emits the scenario sweep as one indented JSON document
// whose bytes depend only on the plan and the seeds.
func WriteScenarioJSON(w io.Writer, p suite.Plan, outputs []suite.RunOutput[*core.Result]) error {
	doc := scenarioJSON{
		Plan: scenarioPlanJSON{Scenarios: p.ScenarioNames(), Seeds: p.Seeds},
		Runs: ScenarioRows(outputs),
	}
	for _, a := range p.Ablations {
		doc.Plan.Ablations = append(doc.Plan.Ablations, a.Label())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteScenarioList renders the bundled scenario library: name, app count,
// event count, peak concurrently-live apps, and the one-line description.
func WriteScenarioList(w io.Writer, lib []*scenario.Scenario) {
	fmt.Fprintf(w, "%-20s %5s %7s %5s  %s\n", "scenario", "apps", "events", "live", "description")
	for _, s := range lib {
		fmt.Fprintf(w, "%-20s %5d %7d %5d  %s\n",
			s.Name, len(s.Apps), len(s.Timeline), s.MaxLiveApps(), s.Description)
	}
}
