// Package core is the public face of the reproduction: the unified Agave +
// SPEC benchmark registry, run configuration, and the one runner: RunAgave,
// RunSPEC and the session engine RunScenarioDef each boot a simulated
// machine from a Config and collect the attributed reference statistics the
// paper's figures are built from into a Result.
//
// Typical use:
//
//	res, err := core.Run("gallery.mp4.view", core.DefaultConfig())
//	fig3 := stats.NewBreakdown(res.Stats.ByProcess(stats.IFetch))
package core

import (
	"errors"
	"fmt"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/spec"
	"agave/internal/stats"
	"agave/internal/suite"
)

// Config controls a benchmark run.
type Config struct {
	// Seed labels the run: it names the run on the plan's seed axis, in
	// reports and on the fleet wire. No model draws a random number, so
	// every seed gives the same bit-identical result.
	Seed uint64
	// Duration is the measured simulated interval (after warmup).
	Duration sim.Ticks
	// Warmup runs the stack before measurement begins (Android runs
	// only): boot transients are excluded, as the paper measures steady
	// application execution. A scenario session launches its apps after
	// the warmup, so there it excludes the system boot alone.
	Warmup sim.Ticks
	// Quantum is the scheduler time slice.
	Quantum sim.Ticks
	// DisableJIT turns the trace JIT off in the benchmark app, or in
	// every app of a scenario session (ablation A1).
	DisableJIT bool
	// DirtyRectComposition switches SurfaceFlinger to composing only
	// posted surfaces (ablation A3).
	DirtyRectComposition bool
	// MinFreePages tunes the lowmemorykiller's cached-app kill waterline
	// for scenario runs, in physical pages (0 = the 32 MB default). The
	// memory-pressure model applies to multi-app scenarios only;
	// single-app benchmark runs measure an unconstrained machine.
	MinFreePages uint64
}

// DefaultConfig is the configuration the paper-artifact numbers are
// regenerated with (see docs/ARCHITECTURE.md): one simulated second of
// steady state after 300 ms of warmup.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Duration: 1 * sim.Second,
		Warmup:   300 * sim.Millisecond,
		Quantum:  1 * sim.Millisecond,
	}
}

// Result is the outcome of one benchmark run: the full attributed counter
// matrix plus the scalar census metrics reported in the paper's Section III.
type Result struct {
	Benchmark string
	IsSPEC    bool
	Stats     *stats.Collector

	// Processes and Threads are the whole-system census at the end of
	// the run (the paper: 20–34 processes, 32–147 threads per Agave app).
	Processes int
	Threads   int
	// LiveProcesses counts processes still alive at the end of the run;
	// it drops below Processes when the run tears processes down (dexopt
	// exits, scenario kills).
	LiveProcesses int
	// CodeRegions and DataRegions count distinct regions that received
	// instruction and data references (the paper: 42–55 and 32–104 per
	// app).
	CodeRegions int
	DataRegions int

	Duration sim.Ticks
	Checksum uint64 // SPEC only: the kernel's fold-proof accumulator

	// Session carries the session-level result when the run was a
	// multi-app scenario (nil for benchmark runs): the scenario that
	// actually executed and its pressure, input and dependability
	// outcomes.
	Session *Session
}

// AgaveNames lists the 19 Agave workloads in paper order.
func AgaveNames() []string { return apps.Names() }

// SPECNames lists the six SPEC CPU2006 baselines in paper order.
func SPECNames() []string { return spec.Names() }

// SuiteNames lists every benchmark: 19 Agave then 6 SPEC.
func SuiteNames() []string { return append(AgaveNames(), SPECNames()...) }

// IsSPEC reports whether name is one of the SPEC baselines.
func IsSPEC(name string) bool {
	for _, n := range spec.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes one benchmark by name.
func Run(name string, cfg Config) (*Result, error) {
	if IsSPEC(name) {
		return RunSPEC(name, cfg)
	}
	return RunAgave(name, cfg)
}

// RunAgave boots the full Android stack, launches the workload, lets the
// system warm up, then measures cfg.Duration of steady-state execution.
func RunAgave(name string, cfg Config) (*Result, error) {
	w, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	k := kernel.New(kernel.Config{Quantum: cfg.Quantum})
	defer k.Shutdown()
	sys := android.Boot(k)
	sys.Compositor.DirtyRectOnly = cfg.DirtyRectComposition
	app := apps.Launch(sys, w)
	if cfg.DisableJIT {
		app.VM.JITEnabled = false
	}
	// Warmup: boot, app launch, first frames.
	k.Run(cfg.Warmup)
	// Measure: reset counters, run the steady state.
	k.Stats.Reset()
	k.Run(cfg.Warmup + cfg.Duration)
	return collect(name, false, k, cfg, 0), nil
}

// RunSPEC runs one SPEC baseline on the bare kernel (no Android stack), as
// the paper's comparison points do. The input-read phase is part of the
// profile — it is what makes ata_sff/0 visible in the SPEC bars.
func RunSPEC(name string, cfg Config) (*Result, error) {
	b, err := spec.ByName(name)
	if err != nil {
		return nil, err
	}
	k := kernel.New(kernel.Config{Quantum: cfg.Quantum})
	defer k.Shutdown()
	env := spec.Launch(k, b)
	k.Run(cfg.Duration)
	return collect(name, true, k, cfg, env.Checksum), nil
}

// collect builds the Result of a finished run: the counter matrix and the
// end-of-run census.
func collect(name string, isSpec bool, k *kernel.Kernel, cfg Config, checksum uint64) *Result {
	return &Result{
		Benchmark:     name,
		IsSPEC:        isSpec,
		Stats:         k.Stats,
		Processes:     k.ProcessCount(),
		Threads:       k.ThreadCount(),
		LiveProcesses: k.LiveProcessCount(),
		CodeRegions:   k.Stats.RegionCount(stats.IFetch),
		DataRegions:   k.Stats.RegionCount(stats.DataKinds...),
		Duration:      cfg.Duration,
		Checksum:      checksum,
	}
}

// forSpec derives the run configuration of one plan spec: the spec's seed
// replaces the base seed, and ablation overrides are ORed on top of the base
// flags.
func (cfg Config) forSpec(s suite.RunSpec) Config {
	out := cfg
	out.Seed = s.Seed
	out.DisableJIT = cfg.DisableJIT || s.Ablation.DisableJIT
	out.DirtyRectComposition = cfg.DirtyRectComposition || s.Ablation.DirtyRectComposition
	return out
}

// RunOne executes one plan spec on a fresh simulated machine: the spec's
// seed and ablation are applied on top of base exactly as the suite engine's
// workers do, so a spec run through RunOne — in this process or a fleet
// worker subprocess — yields the bit-identical result a serial plan sweep
// would have produced at the same plan position.
func RunOne(base Config, s suite.RunSpec) (*Result, sim.Ticks, error) {
	cfg := base.forSpec(s)
	var r *Result
	var err error
	if s.Def != nil {
		r, err = RunScenarioDef(s.Def, cfg)
	} else {
		r, err = Run(s.Benchmark, cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	// Only SPEC runs skip warmup accounting (they boot no Android stack);
	// Agave and scenario runs include it.
	ticks := cfg.Duration
	if !r.IsSPEC {
		ticks += cfg.Warmup
	}
	return r, ticks, nil
}

// RunPlan executes a full run matrix on the suite engine — each run boots
// a fresh simulated machine configured from base plus the spec's seed and
// ablation — and returns the outputs in plan order. parallel bounds the
// worker pool (<= 0 means GOMAXPROCS); the outputs are bit-identical at any
// value. It is the one executor entry point of this package.
func RunPlan(base Config, p suite.Plan, parallel int) ([]suite.RunOutput[*Result], error) {
	return suite.Engine[*Result]{
		Parallel: parallel,
		Run: func(s suite.RunSpec) (*Result, sim.Ticks, error) {
			return RunOne(base, s)
		},
	}.Execute(p.Specs())
}

// SuiteMetrics extracts the scalar metrics of one run's fleet line, which
// the fleet aggregator folds across seeds: total references, census counts,
// and (SPEC only) the fold-proof checksum.
func SuiteMetrics(r *Result) map[string]float64 {
	m := map[string]float64{
		"total_refs":   float64(r.Stats.Total()),
		"processes":    float64(r.Processes),
		"threads":      float64(r.Threads),
		"code_regions": float64(r.CodeRegions),
		"data_regions": float64(r.DataRegions),
	}
	if r.IsSPEC {
		m["checksum"] = float64(r.Checksum)
	}
	if r.Session != nil {
		m["lmk_kills"] = float64(r.Session.LMKKills)
		m["trims"] = float64(r.Session.Trims)
		m["input_events"] = float64(r.Session.InputEvents)
		m["input_dispatched"] = float64(r.Session.InputDispatched)
		m["input_dropped"] = float64(r.Session.InputDropped)
		m["faults_injected"] = float64(r.Session.FaultsInjected)
		m["faults_detected"] = float64(r.Session.FaultsDetected)
		m["faults_recovered"] = float64(r.Session.FaultsRecovered)
		m["anrs"] = float64(r.Session.ANRs)
	}
	return m
}

// RunSuite runs the named benchmarks (all of them when names is empty) at
// cfg.Seed, serially through RunPlan, and returns the results in name order:
// the results slice the figure and table builders fold.
func RunSuite(cfg Config, names ...string) ([]*Result, error) {
	if len(names) == 0 {
		names = SuiteNames()
	}
	outputs, err := RunPlan(cfg, suite.Plan{Benchmarks: names, Seeds: []uint64{cfg.Seed}}, 1)
	if err != nil {
		var re *suite.RunError
		if errors.As(err, &re) {
			return nil, fmt.Errorf("core: running %s: %w", re.Spec.Benchmark, re.Err)
		}
		return nil, err
	}
	out := make([]*Result, len(outputs))
	for i, o := range outputs {
		out[i] = o.Result
	}
	return out, nil
}
