// Command agave runs the Agave reproduction: it executes the 19 Agave
// workloads and the 6 SPEC CPU2006 baselines on the simulated Android stack
// and regenerates the paper's figures and tables.
//
// Usage:
//
//	agave list                         # benchmark inventory
//	agave run <benchmark> [flags]      # one benchmark, summary breakdowns
//	agave suite [flags]                # parallel run matrix (see below)
//	agave scenario -list               # bundled multi-app scenario library
//	agave scenario <name...> [flags]   # scripted multi-app sessions
//	agave scenario -file <path>        # run a JSON scenario document
//	agave scenario -export <name>      # dump a bundled scenario as canonical JSON
//	agave fleet [flags]                # process-sharded suite matrix (see below)
//	agave fig1|fig2|fig3|fig4 [flags]  # regenerate a figure (table/csv/bars)
//	agave table1 [flags]               # regenerate Table I
//	agave scalars [flags]              # Section-III census metrics
//	agave all [flags]                  # everything above in one pass
//
// Each subcommand declares only the flags it reads, so any other flag is a
// usage error; `agave <command> -h` lists them. Names (run's one benchmark,
// scenario's sessions) may sit before, between or after flags. Every
// subcommand but list reads:
//
//	-duration 1000   measured milliseconds of simulated time
//	-warmup 300      warmup milliseconds before measurement (Android runs)
//	-seed 1          seed that labels the run (no model draws from it)
//	-nojit           disable the trace JIT in the app under test
//	-dirtyrect       SurfaceFlinger composes only posted surfaces
//	-cpuprofile f    write a host CPU profile of the invocation to f
//	-memprofile f    write a host heap profile to f when the invocation ends
//
// fig1-fig4 and all read:
//
//	-format table    output format for figures: table, csv, bars
//
// fig1-fig4, all, table1, scalars, suite and fleet read:
//
//	-bench a,b,c     restrict the benchmark set (default: full suite)
//
// scenario, suite and fleet build a run matrix, the cross product of their
// units × seeds × ablations, and read:
//
//	-minfree N       cached-app kill waterline in pages (0 = 8192 = 32 MB)
//	-seeds 1,2,3     seed axis of the run matrix (default: -seed)
//	-ablations       add the nojit and dirtyrect ablations to the matrix
//	-json            emit the plan, per-run rows and report as JSON
//
// A seed labels a run and selects nothing: no model draws a random number,
// so every seed of a unit gives the same result. Generated scenarios take
// their own seeds from -gen-seed.
//
// A benchmark, scenario or seed named twice on its axis is rejected, in
// -bench as on a matrix: the repeated cells would alias in summaries and
// count twice in suite-wide shares.
//
// scenario and suite run their matrix on a bounded worker pool; results are
// emitted in plan order and are bit-identical to a serial run of the same
// plan. They read:
//
//	-parallel 0      worker pool size (0 = all cores, 1 = serial)
//
// The scenario subcommand runs scripted multi-app sessions: apps launch,
// switch, background, and die on a deterministic timeline while every
// reference is attributed per process. Scenario machines run the
// memory-pressure model: a global physical-page budget, onTrimMemory
// broadcasts when free pages run low, and a lowmemorykiller that evicts
// processes by oom_adj score — so Pressure events in a timeline produce
// emergent kills the report's lmk columns account for. Timelines can also
// inject input gestures (tap, key, swipe) that travel through
// system_server's InputDispatcher to the focused app's looper; dispatched
// and dropped counts plus per-app dispatch-latency statistics surface in
// the report's input columns. Fault events (faultBinder, crashService,
// killMediaserver, corruptParcel — see docs/SCENARIOS.md) drive the
// fault-injection plane, and the report's finj/fdet/frec/anrs columns carry
// the dependability outcome, ANRs courtesy of the AnrWatchdog. It alone
// reads:
//
//	-list            print the bundled scenario library and exit
//	-file path       run a scenario decoded from a JSON scenario document
//	-export name     print a bundled scenario as canonical JSON and exit
//
// Scenario reports carry no wall-clock columns, so the same plan and seed
// emit byte-identical bytes at any -parallel value — and a file-loaded copy
// of a bundled scenario (agave scenario -export commute | agave scenario
// -file /dev/stdin) reproduces the bundled report byte for byte.
//
// suite and fleet add scenario axes to the benchmark matrix and read:
//
//	-scenarios a,b     add bundled scenarios to the matrix as a plan axis
//	-scenario-dir d    add every *.json scenario document in d to the matrix
//	-gen-scenarios N   add N generated scenarios (seeds -gen-seed..+N-1);
//	                   -gen-apps/-gen-events/-gen-pressure/-gen-inputs/
//	                   -gen-faults set the knobs
//
// The cross-seed summary a suite prints after its matrix (and carries as
// "report" under -json) is the fleet report of the same job: byte-identical
// to what `agave fleet` prints for the same flags.
//
// The fleet subcommand executes the same matrix sharded across worker
// subprocesses with constant-memory streaming aggregation — the
// million-session execution path (see docs/FLEET.md). The report of any
// worker count, including a checkpoint-resumed run, is byte-identical to
// the serial in-process run of the same plan, and its fingerprint commits
// to every per-run result line. It alone reads:
//
//	-workers 0         worker subprocesses (0 = serial in-process)
//	-shard-size 8      plan specs per shard (shard geometry, never concurrency)
//	-checkpoint path   journal completed shards; an existing journal resumes
//	-worker            internal: run one shard from a stdin envelope; it
//	                   combines with no flag but -cpuprofile/-memprofile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"agave/internal/core"
	"agave/internal/report"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
	"agave/internal/suite"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// commands are the subcommands Main dispatches.
var commands = []string{"list", "run", "suite", "scenario", "fleet",
	"fig1", "fig2", "fig3", "fig4", "table1", "scalars", "all"}

// Main is the testable entry point: it runs one CLI invocation against the
// given streams and returns the process exit code (0 ok, 1 run failure,
// 2 usage error).
func Main(args []string, stdout, stderr io.Writer) (code int) {
	if len(args) < 1 || !slices.Contains(commands, args[0]) {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	in := func(cmds ...string) bool { return slices.Contains(cmds, cmd) }
	figure := in("fig1", "fig2", "fig3", "fig4", "all")

	// Each flag is declared once, for exactly the subcommands that read it,
	// so the flag package rejects any other. An undeclared flag keeps its
	// zero value, which no code path of that subcommand reads.
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.Config{Quantum: sim.Millisecond}
	var (
		durationMS, warmupMS                        int64
		format, benchList, scenarioList, exportName string
		cpuProfile, memProfile                      string
		parallel                                    int
		asJSON, listScenarios                       bool
		pf                                          planFlags
		ff                                          fleetFlags
	)
	if cmd != "list" {
		fs.Int64Var(&durationMS, "duration", 1000, "measured simulated milliseconds")
		fs.Int64Var(&warmupMS, "warmup", 300, "warmup simulated milliseconds")
		fs.Uint64Var(&cfg.Seed, "seed", 1, "seed that labels the run (no model draws from it)")
		fs.BoolVar(&cfg.DisableJIT, "nojit", false, "disable the trace JIT")
		fs.BoolVar(&cfg.DirtyRectComposition, "dirtyrect", false, "dirty-rect composition")
		fs.StringVar(&cpuProfile, "cpuprofile", "", "write a host CPU profile of the invocation to `file`")
		fs.StringVar(&memProfile, "memprofile", "", "write a host heap profile to `file` when the invocation ends")
	}
	if figure {
		fs.StringVar(&format, "format", "table", "figure output: table, csv, bars")
	}
	if figure || in("table1", "scalars", "suite", "fleet") {
		fs.StringVar(&benchList, "bench", "", "comma-separated benchmark subset")
	}
	if in("scenario", "suite", "fleet") {
		fs.Uint64Var(&cfg.MinFreePages, "minfree", 0, "lowmemorykiller cached-kill waterline in pages (scenario runs; 0 = default)")
		fs.StringVar(&pf.seeds, "seeds", "", "comma-separated seed axis of the run matrix (seeds label runs)")
		fs.BoolVar(&pf.ablations, "ablations", false, "add nojit and dirtyrect ablations to the matrix")
		fs.BoolVar(&asJSON, "json", false, "emit the plan, runs and report as JSON")
	}
	if in("scenario", "suite") {
		fs.IntVar(&parallel, "parallel", 0, "worker pool size (0 = all cores)")
	}
	if cmd == "scenario" {
		fs.BoolVar(&listScenarios, "list", false, "list the bundled scenario library")
		fs.StringVar(&pf.file, "file", "", "run a scenario loaded from a JSON scenario document")
		fs.StringVar(&exportName, "export", "", "print a bundled scenario as its canonical JSON document and exit")
	}
	if in("suite", "fleet") {
		fs.StringVar(&scenarioList, "scenarios", "", "comma-separated scenarios to add to the matrix")
		fs.StringVar(&pf.dir, "scenario-dir", "", "add every *.json scenario in a directory to the matrix")
		fs.IntVar(&pf.gen.n, "gen-scenarios", 0, "add N generated scenarios to the matrix (seeds gen-seed..gen-seed+N-1)")
		fs.Uint64Var(&pf.gen.seed, "gen-seed", 1, "generation seed of the first generated scenario")
		fs.IntVar(&pf.gen.apps, "gen-apps", 0, "apps per generated scenario (0 = 10, the concurrently-live peak)")
		fs.IntVar(&pf.gen.events, "gen-events", 0, "timeline events per generated scenario (0 = 4 per app)")
		fs.IntVar(&pf.gen.pressure, "gen-pressure", 0, "memory-pressure knob of generated scenarios (0 = none)")
		fs.IntVar(&pf.gen.inputs, "gen-inputs", 0, "input gestures (tap/key/swipe) per generated scenario (0 = none)")
		fs.IntVar(&pf.gen.faults, "gen-faults", 0, "fault-injection events per generated scenario (0 = none)")
	}
	if cmd == "fleet" {
		fs.IntVar(&ff.workers, "workers", 0, "fleet worker subprocesses (0 = serial in-process)")
		fs.IntVar(&ff.shardSize, "shard-size", defaultShardSize, "fleet plan specs per shard")
		fs.StringVar(&ff.checkpoint, "checkpoint", "", "fleet checkpoint journal path (existing journals resume)")
		fs.BoolVar(&ff.worker, "worker", false, "internal: run one fleet shard from a stdin envelope")
	}

	// flag.Parse stops at the first positional, so collect it and resume:
	// names may sit before, between and after flags.
	var names []string
	for rest := args[1:]; ; {
		if fs.Parse(rest) != nil {
			return 2
		}
		if rest = fs.Args(); len(rest) == 0 {
			break
		}
		names, rest = append(names, rest[0]), rest[1:]
	}
	// A fleet worker reads its plan and config from the stdin envelope, so
	// any other flag beside -worker would be dropped without effect.
	if ff.worker {
		extra := ""
		fs.Visit(func(f *flag.Flag) {
			if extra == "" && f.Name != "worker" && f.Name != "cpuprofile" && f.Name != "memprofile" {
				extra = f.Name
			}
		})
		if extra != "" {
			fmt.Fprintf(stderr, "agave fleet: -worker reads its plan and config from stdin; -%s cannot be combined with it\n", extra)
			return 2
		}
	}
	// run names one benchmark and scenario any number of sessions; the
	// others take none, so `agave suite countdown.main` must not silently
	// sweep all 25 benchmarks because the user skipped -bench.
	maxNames := 0
	switch cmd {
	case "run":
		if len(names) == 0 {
			fmt.Fprintln(stderr, "agave run: benchmark name required")
			return 2
		}
		maxNames = 1
	case "scenario":
		maxNames = len(names)
	}
	if len(names) > maxNames {
		hint := ""
		if fs.Lookup("bench") != nil {
			hint = " (benchmarks are selected with -bench)"
		}
		fmt.Fprintf(stderr, "agave %s: unexpected argument %q%s\n", cmd, names[maxNames], hint)
		return 2
	}
	if cmd == "list" {
		fmt.Fprintln(stdout, "Agave workloads:")
		for _, n := range core.AgaveNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		fmt.Fprintln(stdout, "SPEC CPU2006 baselines:")
		for _, n := range core.SPECNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	// An empty or negative measured interval is a configuration mistake,
	// never a measurement: fail loudly instead of emitting all-zero counters.
	if durationMS <= 0 {
		fmt.Fprintf(stderr, "agave %s: -duration must be a positive number of milliseconds (got %d)\n", cmd, durationMS)
		return 2
	}
	if warmupMS < 0 {
		fmt.Fprintf(stderr, "agave %s: -warmup must not be negative (got %d)\n", cmd, warmupMS)
		return 2
	}
	cfg.Duration = sim.Ticks(durationMS) * sim.Millisecond
	cfg.Warmup = sim.Ticks(warmupMS) * sim.Millisecond
	if figure && format != "table" && format != "csv" && format != "bars" {
		fmt.Fprintf(stderr, "agave %s: -format must be table, csv or bars (got %q)\n", cmd, format)
		return 2
	}
	// -ablations sweeps base/nojit/dirtyrect as matrix cells; a base config
	// that already forces one of those flags would make the cell labels lie
	// (the "base" row would really be nojit).
	if pf.ablations && (cfg.DisableJIT || cfg.DirtyRectComposition) {
		fmt.Fprintf(stderr, "agave %s: -ablations cannot be combined with -nojit or -dirtyrect (the ablation axis already sweeps them)\n", cmd)
		return 2
	}
	// Visit sees every explicitly-set flag, so even a knob set to its
	// default value is caught. A generator knob without -gen-scenarios
	// would configure zero generated sessions: reject the forgotten count,
	// don't ignore the knobs.
	setFlags := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if pf.gen.n == 0 {
		for _, f := range []string{"gen-seed", "gen-apps", "gen-events", "gen-pressure", "gen-inputs", "gen-faults"} {
			if setFlags[f] {
				fmt.Fprintf(stderr, "agave %s: -%s requires -gen-scenarios N\n", cmd, f)
				return 2
			}
		}
	}
	// -export and -list print a document or listing and exit; combining
	// either with names or -file would silently skip the requested runs.
	if exportName != "" && (len(names) > 0 || pf.file != "") {
		fmt.Fprintln(stderr, "agave scenario: -export cannot be combined with scenario names or -file")
		return 2
	}
	if listScenarios && (len(names) > 0 || setFlags["file"] || setFlags["export"]) {
		fmt.Fprintln(stderr, "agave scenario: -list cannot be combined with scenario names, -file, or -export")
		return 2
	}
	// What runs: run and scenario name it positionally, the others select
	// benchmarks with -bench, by default the full suite.
	if benchList != "" {
		names = splitList(benchList)
		if n, dup := repeated(names); dup {
			fmt.Fprintf(stderr, "agave %s: duplicate benchmark %q on the benchmark axis\n", cmd, n)
			return 1
		}
	} else if cmd != "run" && cmd != "scenario" {
		names = core.SuiteNames()
	}

	prof, err := startProfiles(cpuProfile, memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "agave:", err)
		return 1
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(stderr, "agave:", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	switch cmd {
	case "scenario":
		pf.scenarios = names
		return scenarioCmd(stdout, stderr, cfg, pf, parallel, asJSON, listScenarios, exportName)
	case "suite":
		pf.bench, pf.scenarios = names, splitList(scenarioList)
		return suiteCmd(stdout, stderr, cfg, pf, parallel, asJSON)
	case "fleet":
		pf.bench, pf.scenarios = names, splitList(scenarioList)
		return fleetCmd(stdout, stderr, cfg, ff, pf, asJSON)
	}

	results, err := core.RunSuite(cfg, names...)
	if err != nil {
		fmt.Fprintln(stderr, "agave:", err)
		return 1
	}

	emit := func(fig report.Figure) {
		switch format {
		case "csv":
			report.WriteCSV(stdout, fig)
		case "bars":
			report.WriteBars(stdout, fig)
		default:
			report.WriteTable(stdout, fig)
		}
		fmt.Fprintln(stdout)
	}

	switch cmd {
	case "run":
		r := results[0]
		fmt.Fprintf(stdout, "%s: %d total refs, %d processes, %d threads, %d code regions, %d data regions\n",
			r.Benchmark, r.Stats.Total(), r.Processes, r.Threads, r.CodeRegions, r.DataRegions)
		fmt.Fprintln(stdout, "\nTop instruction regions:")
		for _, row := range stats.NewBreakdown(r.Stats.ByRegion(stats.IFetch)).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Fprintln(stdout, "\nTop data regions:")
		for _, row := range stats.NewBreakdown(r.Stats.ByRegion(stats.DataKinds...)).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Fprintln(stdout, "\nTop processes (all references):")
		for _, row := range stats.NewBreakdown(r.Stats.ByProcess()).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Fprintln(stdout, "\nTop threads (all references):")
		for _, row := range stats.NewBreakdown(r.Stats.ByThread()).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
	case "fig1":
		emit(report.Fig1(results))
	case "fig2":
		emit(report.Fig2(results))
	case "fig3":
		emit(report.Fig3(results))
	case "fig4":
		emit(report.Fig4(results))
	case "table1":
		report.WriteTable1(stdout, report.Table1(results), 6)
	case "scalars":
		report.WriteScalars(stdout, report.Scalars(results))
		code, data := report.SuiteRegionCounts(results)
		fmt.Fprintf(stdout, "\nAgave suite-wide: %d instruction regions, %d data regions\n", code, data)
	case "all":
		emit(report.Fig1(results))
		emit(report.Fig2(results))
		emit(report.Fig3(results))
		emit(report.Fig4(results))
		report.WriteTable1(stdout, report.Table1(results), 6)
		fmt.Fprintln(stdout)
		report.WriteScalars(stdout, report.Scalars(results))
		code, data := report.SuiteRegionCounts(results)
		fmt.Fprintf(stdout, "\nAgave suite-wide: %d instruction regions, %d data regions\n", code, data)
	}
	return 0
}

// splitList splits a comma-separated flag value into trimmed entries.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	entries := strings.Split(s, ",")
	for i := range entries {
		entries[i] = strings.TrimSpace(entries[i])
	}
	return entries
}

// repeated returns the first entry that occurs twice on a plan axis. A
// repeated cell would alias in summaries and weight suite-wide shares twice.
func repeated[T comparable](axis []T) (T, bool) {
	seen := make(map[T]bool, len(axis))
	for _, v := range axis {
		if seen[v] {
			return v, true
		}
		seen[v] = true
	}
	var zero T
	return zero, false
}

// genFlags bundles the generated-scenario knobs of suite and fleet.
type genFlags struct {
	n        int
	seed     uint64
	apps     int
	events   int
	pressure int
	inputs   int
	faults   int
}

// planFlags bundles what scenario, suite and fleet resolve into a run plan:
// the three build theirs from identical flags through buildPlan, so a fleet
// sweep always has an exact serial counterpart.
type planFlags struct {
	bench     []string // benchmark axis
	scenarios []string // bundled scenarios by name
	file      string   // scenario -file
	dir       string   // -scenario-dir
	gen       genFlags
	seeds     string // -seeds; empty means the one -seed
	ablations bool
}

// buildPlan resolves the matrix flags into a run plan. On failure it reports
// (zero plan, exit code, false) with the diagnostic already printed.
func buildPlan(stderr io.Writer, cmd string, cfg core.Config, pf planFlags) (suite.Plan, int, bool) {
	fail := func(code int, format string, args ...any) (suite.Plan, int, bool) {
		fmt.Fprintf(stderr, "agave %s: %s\n", cmd, fmt.Sprintf(format, args...))
		return suite.Plan{}, code, false
	}
	for _, n := range pf.bench {
		if !slices.Contains(core.SuiteNames(), n) {
			return fail(1, "unknown benchmark %q", n)
		}
	}
	// The scenario axis, resolved to definitions: bundled sessions by name,
	// a -file document, every *.json document of -scenario-dir, then
	// -gen-scenarios generated sessions at consecutive generation seeds.
	var set []*scenario.Scenario
	for _, n := range pf.scenarios {
		sc, err := scenario.ByName(n)
		if err != nil {
			return fail(1, "%v", err)
		}
		set = append(set, sc)
	}
	if pf.file != "" {
		sc, err := scenario.FromFile(pf.file)
		if err != nil {
			return fail(1, "%v", err)
		}
		set = append(set, sc)
	}
	if pf.dir != "" {
		loaded, err := scenario.LoadDir(pf.dir)
		if err != nil {
			return fail(1, "%v", err)
		}
		set = append(set, loaded...)
	}
	gen := pf.gen
	if gen.n < 0 {
		return fail(2, "-gen-scenarios must not be negative (got %d)", gen.n)
	}
	// The sibling knobs validate the same way: zero means "use the
	// default", but a negative value is a typo, not a request.
	if gen.apps < 0 || gen.events < 0 || gen.pressure < 0 || gen.inputs < 0 || gen.faults < 0 {
		return fail(2, "-gen-apps, -gen-events, -gen-pressure, -gen-inputs, and -gen-faults must not be negative (got %d/%d/%d/%d/%d)",
			gen.apps, gen.events, gen.pressure, gen.inputs, gen.faults)
	}
	for i := 0; i < gen.n; i++ {
		set = append(set, scenario.Generate(scenario.GenConfig{
			Seed:     gen.seed + uint64(i),
			Apps:     gen.apps,
			Events:   gen.events,
			Pressure: gen.pressure,
			Inputs:   gen.inputs,
			Faults:   gen.faults,
		}))
	}
	// Names must be unique across the whole scenario axis: the text matrix
	// carries no provenance column.
	if n, dup := repeated(suite.Plan{ScenarioSet: set}.ScenarioNames()); dup {
		return fail(1, "duplicate scenario name %q on the scenario axis", n)
	}
	seeds := []uint64{cfg.Seed}
	if pf.seeds != "" {
		seeds = nil
		for _, f := range splitList(pf.seeds) {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return fail(2, "bad -seeds entry %q: %v", f, err)
			}
			seeds = append(seeds, v)
		}
	}
	if s, dup := repeated(seeds); dup {
		return fail(1, "duplicate seed %d on the seed axis", s)
	}
	plan := suite.Plan{Benchmarks: pf.bench, ScenarioSet: set,
		Seeds: seeds, Ablations: []suite.Ablation{suite.Baseline}}
	if pf.ablations {
		plan.Ablations = suite.DefaultAblations
	}
	return plan, 0, true
}

// suiteCmd executes the suite subcommand: build the run matrix — benchmarks,
// then one scenario axis of bundled, directory-loaded and generated
// sessions — execute it on the worker pool, and render per-run rows
// plus the cross-seed summary, which is the fleet report of the same job.
func suiteCmd(stdout, stderr io.Writer, cfg core.Config, pf planFlags, parallel int, asJSON bool) int {
	plan, code, ok := buildPlan(stderr, "suite", cfg, pf)
	if !ok {
		return code
	}
	spec, err := report.FleetSpec(cfg, plan, defaultShardSize)
	if err != nil {
		fmt.Fprintln(stderr, "agave suite:", err)
		return 1
	}
	outputs, err := core.RunPlan(cfg, plan, parallel)
	if err != nil {
		fmt.Fprintln(stderr, "agave suite:", err)
		return 1
	}
	rep, err := report.Summarize(spec, outputs)
	if err != nil {
		fmt.Fprintln(stderr, "agave suite:", err)
		return 1
	}
	if asJSON {
		if err := report.WriteSuiteJSON(stdout, plan, parallel, outputs, rep); err != nil {
			fmt.Fprintln(stderr, "agave suite:", err)
			return 1
		}
		return 0
	}
	units := fmt.Sprintf("%d benchmarks", len(plan.Benchmarks))
	if n := len(plan.ScenarioSet); n > 0 {
		units += fmt.Sprintf(" + %d scenarios", n)
	}
	fmt.Fprintf(stdout, "suite: %d runs (%s × %d seeds × %d ablations)\n\n",
		plan.Size(), units, len(plan.Seeds), len(plan.Ablations))
	report.WriteMatrix(stdout, outputs)
	if len(plan.Seeds) > 1 || len(plan.Ablations) > 1 {
		fmt.Fprintln(stdout)
		report.WriteFleetText(stdout, rep)
	}
	return 0
}

// scenarioCmd executes the scenario subcommand: list the bundled library,
// export a bundled scenario as its canonical JSON document, or run the named
// (and/or file-loaded) scripted sessions through the suite engine and render
// the wall-clock-free scenario matrix (or JSON document). Output bytes
// depend only on the plan and seeds — never on -parallel — and a file-loaded
// copy of a bundled scenario renders a byte-identical default report at the
// same seed (provenance appears only in the JSON document's source field).
func scenarioCmd(stdout, stderr io.Writer, cfg core.Config, pf planFlags,
	parallel int, asJSON, list bool, exportName string) int {
	if list {
		report.WriteScenarioList(stdout, scenario.Library())
		return 0
	}
	if exportName != "" {
		sc, err := scenario.ByName(exportName)
		if err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
		doc, err := scenario.Encode(sc)
		if err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
		stdout.Write(doc)
		return 0
	}
	if len(pf.scenarios) == 0 && pf.file == "" {
		fmt.Fprintln(stderr, "agave scenario: scenario name required (or -list, -file, -export)")
		return 2
	}
	plan, code, ok := buildPlan(stderr, "scenario", cfg, pf)
	if !ok {
		return code
	}
	outputs, err := core.RunPlan(cfg, plan, parallel)
	if err != nil {
		fmt.Fprintln(stderr, "agave scenario:", err)
		return 1
	}
	if asJSON {
		if err := report.WriteScenarioJSON(stdout, plan, outputs); err != nil {
			fmt.Fprintln(stderr, "agave scenario:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "scenario: %d runs (%d scenarios × %d seeds × %d ablations)\n\n",
		plan.Size(), len(plan.ScenarioSet), len(plan.Seeds), len(plan.Ablations))
	report.WriteScenarioMatrix(stdout, outputs)
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: agave <command> [flags]

commands:
  list      benchmark inventory
  run       run one benchmark and print its breakdowns
  suite     run a benchmark × seed × ablation matrix on a worker pool
  scenario  run scripted multi-app sessions (-list for the library)
  fleet     run the matrix sharded across worker subprocesses (docs/FLEET.md)
  fig1      instruction references by VMA region   (paper Fig. 1)
  fig2      data references by VMA region          (paper Fig. 2)
  fig3      instruction references by process      (paper Fig. 3)
  fig4      data references by process             (paper Fig. 4)
  table1    thread ranking                         (paper Table I)
  scalars   region/process/thread census           (paper Sec. III)
  all       everything

run 'agave <command> -h' for flags.`)
}
