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
// Flags:
//
//	-duration 1000   measured milliseconds of simulated time
//	-warmup 300      warmup milliseconds before measurement (Android runs)
//	-seed 1          simulation seed
//	-format table    output format for figures: table, csv, bars
//	-bench a,b,c     restrict the benchmark set (default: full suite)
//	-nojit           disable the trace JIT in the app under test
//	-dirtyrect       SurfaceFlinger composes only posted surfaces
//	-cpuprofile f    write a host CPU profile of the invocation to f
//	-memprofile f    write a host heap profile to f when the invocation ends
//
// The suite subcommand executes the cross product of benchmarks × seeds ×
// ablations on a bounded worker pool; results are emitted in plan order and
// are bit-identical to a serial run of the same plan:
//
//	-parallel 0        worker pool size (0 = all cores, 1 = serial)
//	-seeds 1,2,3       seed axis of the run matrix (default: -seed)
//	-ablations         add the nojit and dirtyrect ablations to the matrix
//	-scenarios a,b     add bundled scenarios to the matrix as a plan axis
//	-scenario-dir d    add every *.json scenario document in d to the matrix
//	-gen-scenarios N   add N generated scenarios (seeds -gen-seed..+N-1);
//	                   -gen-apps/-gen-events/-gen-pressure/-gen-inputs/
//	                   -gen-faults set the knobs
//	-json              emit plan, per-run rows, and the fleet report as JSON
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
// to every per-run result line:
//
//	-workers 0         worker subprocesses (0 = serial in-process)
//	-shard-size 8      plan specs per shard (shard geometry, never concurrency)
//	-checkpoint path   journal completed shards; an existing journal resumes
//	-worker            internal: run one shard from a stdin envelope
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
// the dependability outcome, ANRs courtesy of the AnrWatchdog:
//
//	-minfree N       cached-app kill waterline in pages (0 = 8192 = 32 MB)
//	-file path       run a scenario decoded from a JSON scenario document
//	-export name     print a bundled scenario as canonical JSON and exit
//
// Scenario reports carry no wall-clock columns, so the same plan and seed
// emit byte-identical bytes at any -parallel value — and a file-loaded copy
// of a bundled scenario (agave scenario -export commute | agave scenario
// -file /dev/stdin) reproduces the bundled report byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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

// Main is the testable entry point: it runs one CLI invocation against the
// given streams and returns the process exit code (0 ok, 1 run failure,
// 2 usage error).
func Main(args []string, stdout, stderr io.Writer) (code int) {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	durationMS := fs.Int64("duration", 1000, "measured simulated milliseconds")
	warmupMS := fs.Int64("warmup", 300, "warmup simulated milliseconds")
	seed := fs.Uint64("seed", 1, "simulation seed")
	minFree := fs.Uint64("minfree", 0, "lowmemorykiller cached-kill waterline in pages (scenario runs; 0 = default)")
	format := fs.String("format", "table", "figure output: table, csv, bars")
	benchList := fs.String("bench", "", "comma-separated benchmark subset")
	noJIT := fs.Bool("nojit", false, "disable the trace JIT")
	dirtyRect := fs.Bool("dirtyrect", false, "dirty-rect composition")
	parallel := fs.Int("parallel", 0, "suite worker pool size (0 = all cores)")
	seedList := fs.String("seeds", "", "comma-separated seed axis of the suite matrix")
	ablations := fs.Bool("ablations", false, "add nojit and dirtyrect ablations to the matrix")
	scenarioList := fs.String("scenarios", "", "comma-separated scenarios to add to the suite matrix")
	asJSON := fs.Bool("json", false, "emit the suite sweep as JSON")
	listScenarios := fs.Bool("list", false, "list the bundled scenario library")
	scenarioFile := fs.String("file", "", "run a scenario loaded from a JSON scenario document")
	exportName := fs.String("export", "", "print a bundled scenario as its canonical JSON document and exit")
	scenarioDir := fs.String("scenario-dir", "", "add every *.json scenario in a directory to the suite matrix")
	genScenarios := fs.Int("gen-scenarios", 0, "add N generated scenarios to the suite matrix (seeds gen-seed..gen-seed+N-1)")
	genSeed := fs.Uint64("gen-seed", 1, "generation seed of the first generated scenario")
	genApps := fs.Int("gen-apps", 0, "apps per generated scenario (0 = 10, the concurrently-live peak)")
	genEvents := fs.Int("gen-events", 0, "timeline events per generated scenario (0 = 4 per app)")
	genPressure := fs.Int("gen-pressure", 0, "memory-pressure knob of generated scenarios (0 = none)")
	genInputs := fs.Int("gen-inputs", 0, "input gestures (tap/key/swipe) per generated scenario (0 = none)")
	genFaults := fs.Int("gen-faults", 0, "fault-injection events per generated scenario (0 = none)")
	workers := fs.Int("workers", 0, "fleet worker subprocesses (0 = serial in-process)")
	shardSize := fs.Int("shard-size", 8, "fleet plan specs per shard")
	checkpoint := fs.String("checkpoint", "", "fleet checkpoint journal path (existing journals resume)")
	workerMode := fs.Bool("worker", false, "internal: run one fleet shard from a stdin envelope")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the invocation to `file`")
	memProfile := fs.String("memprofile", "", "write a host heap profile to `file` when the invocation ends")

	switch cmd {
	case "list":
		fmt.Fprintln(stdout, "Agave workloads:")
		for _, n := range core.AgaveNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		fmt.Fprintln(stdout, "SPEC CPU2006 baselines:")
		for _, n := range core.SPECNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	case "run", "suite", "scenario", "fleet", "fig1", "fig2", "fig3", "fig4", "table1", "scalars", "all":
		// parsed below
	default:
		usage(stderr)
		return 2
	}

	var names []string
	args = args[1:]
	if cmd == "run" {
		if len(args) == 0 {
			fmt.Fprintln(stderr, "agave run: benchmark name required")
			return 2
		}
		names = []string{args[0]}
		args = args[1:]
	}
	if cmd == "scenario" {
		// Scenario names are positional: `agave scenario commute drive`.
		for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
			names = append(names, args[0])
			args = args[1:]
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The scenario subcommand also accepts names interleaved with flags
	// (`agave scenario -parallel 8 commute -json`): flag.Parse stops at
	// the first positional, so keep alternating between collecting
	// leading names and re-parsing the remainder. Everywhere else stray
	// positionals are a usage error, not something to silently run
	// without: `agave suite countdown.main` must not sweep all 25
	// benchmarks because the user skipped -bench.
	if cmd == "scenario" {
		for rest := fs.Args(); len(rest) > 0; rest = fs.Args() {
			// A bare "-" is a positional to the flag package too;
			// re-parsing it would never make progress.
			if strings.HasPrefix(rest[0], "-") && rest[0] != "-" {
				if err := fs.Parse(rest); err != nil {
					return 2
				}
				continue
			}
			names = append(names, rest[0])
			if err := fs.Parse(rest[1:]); err != nil {
				return 2
			}
		}
	} else if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "agave %s: unexpected argument %q (benchmarks are selected with -bench)\n",
			cmd, fs.Arg(0))
		return 2
	}
	if *benchList != "" {
		names = strings.Split(*benchList, ",")
	}

	// An empty or negative measured interval is a configuration mistake,
	// never a measurement: fail loudly instead of emitting all-zero counters.
	if *durationMS <= 0 {
		fmt.Fprintf(stderr, "agave %s: -duration must be a positive number of milliseconds (got %d)\n", cmd, *durationMS)
		return 2
	}
	if *warmupMS < 0 {
		fmt.Fprintf(stderr, "agave %s: -warmup must not be negative (got %d)\n", cmd, *warmupMS)
		return 2
	}

	cfg := core.Config{
		Seed:                 *seed,
		Duration:             sim.Ticks(*durationMS) * sim.Millisecond,
		Warmup:               sim.Ticks(*warmupMS) * sim.Millisecond,
		Quantum:              sim.Millisecond,
		DisableJIT:           *noJIT,
		DirtyRectComposition: *dirtyRect,
		MinFreePages:         *minFree,
	}

	if cmd == "suite" || cmd == "scenario" || cmd == "fleet" {
		// -ablations sweeps base/nojit/dirtyrect as matrix cells; a base
		// config that already forces one of those flags would make the
		// cell labels lie (the "base" row would really be nojit).
		if *ablations && (*noJIT || *dirtyRect) {
			fmt.Fprintf(stderr, "agave %s: -ablations cannot be combined with -nojit or -dirtyrect (the ablation axis already sweeps them)\n", cmd)
			return 2
		}
	}
	// The subcommands share one FlagSet, so a flag belonging to the other
	// subcommand parses fine — reject it instead of silently ignoring a
	// requested scenario source. Visit sees every explicitly-set flag, so
	// even a knob set to its default value is caught.
	setFlags := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if cmd != "scenario" {
		for _, f := range []string{"file", "export"} {
			if setFlags[f] {
				fmt.Fprintf(stderr, "agave %s: -%s applies to the scenario subcommand\n", cmd, f)
				return 2
			}
		}
	}
	if (cmd == "run" || cmd == "scenario") && setFlags["bench"] {
		fmt.Fprintf(stderr, "agave %s: -bench does not apply; name what to run positionally (agave %s <name>)\n", cmd, cmd)
		return 2
	}
	if cmd != "suite" && cmd != "fleet" {
		for _, f := range []string{"scenarios", "scenario-dir", "gen-scenarios", "gen-seed", "gen-apps", "gen-events", "gen-pressure", "gen-inputs", "gen-faults"} {
			if setFlags[f] {
				fmt.Fprintf(stderr, "agave %s: -%s applies to the suite and fleet subcommands\n", cmd, f)
				return 2
			}
		}
	}
	if cmd != "fleet" {
		for _, f := range []string{"workers", "shard-size", "checkpoint", "worker"} {
			if setFlags[f] {
				fmt.Fprintf(stderr, "agave %s: -%s applies to the fleet subcommand\n", cmd, f)
				return 2
			}
		}
	}
	// A generator knob without -gen-scenarios would configure zero
	// generated sessions: reject the forgotten count, don't ignore the
	// knobs.
	if (cmd == "suite" || cmd == "fleet") && *genScenarios == 0 {
		for _, f := range []string{"gen-seed", "gen-apps", "gen-events", "gen-pressure", "gen-inputs", "gen-faults"} {
			if setFlags[f] {
				fmt.Fprintf(stderr, "agave %s: -%s requires -gen-scenarios N\n", cmd, f)
				return 2
			}
		}
	}
	if cmd == "scenario" {
		// -export and -list print a document or listing and exit;
		// combining either with names or -file would silently skip the
		// requested runs.
		if *exportName != "" && (len(names) > 0 || *scenarioFile != "") {
			fmt.Fprintln(stderr, "agave scenario: -export cannot be combined with scenario names or -file")
			return 2
		}
		if *listScenarios && (len(names) > 0 || setFlags["file"] || setFlags["export"]) {
			fmt.Fprintln(stderr, "agave scenario: -list cannot be combined with scenario names, -file, or -export")
			return 2
		}
	}
	prof, err := startProfiles(*cpuProfile, *memProfile)
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
	if cmd == "scenario" {
		return scenarioCmd(stdout, stderr, cfg, names, *parallel, *seedList, *ablations, *asJSON,
			*listScenarios, *scenarioFile, *exportName)
	}
	if cmd == "suite" || cmd == "fleet" {
		gen := genFlags{n: *genScenarios, seed: *genSeed, apps: *genApps,
			events: *genEvents, pressure: *genPressure, inputs: *genInputs, faults: *genFaults}
		pf := planFlags{names: names, seedList: *seedList, ablations: *ablations,
			scenarioList: *scenarioList, scenarioDir: *scenarioDir, gen: gen}
		if cmd == "fleet" {
			return fleetCmd(stdout, stderr, cfg, fleetFlags{
				workers:    *workers,
				shardSize:  *shardSize,
				checkpoint: *checkpoint,
				worker:     *workerMode,
				asJSON:     *asJSON,
			}, pf)
		}
		// suite rejects -shard-size, so its summary folds at fleet's
		// default shard size and matches `agave fleet` byte for byte.
		return suiteCmd(stdout, stderr, cfg, pf, *parallel, *asJSON, *shardSize)
	}

	results, err := core.RunSuite(cfg, names...)
	if err != nil {
		fmt.Fprintln(stderr, "agave:", err)
		return 1
	}

	emit := func(fig report.Figure) {
		switch *format {
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

// parseSeeds resolves the -seeds axis, falling back to the single -seed.
func parseSeeds(stderr io.Writer, cmd string, base uint64, seedList string) ([]uint64, bool) {
	seeds := []uint64{base}
	if seedList == "" {
		return seeds, true
	}
	seeds = nil
	for _, f := range strings.Split(seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "agave %s: bad -seeds entry %q: %v\n", cmd, f, err)
			return nil, false
		}
		seeds = append(seeds, v)
	}
	return seeds, true
}

// uniqueScenarioAxis verifies scenario names are unique across a plan's
// whole scenario axis — named bundled scenarios plus the ad-hoc set. Two
// cells sharing a name would render indistinguishable rows (the text matrix
// carries no provenance column) and alias in summaries.
func uniqueScenarioAxis(stderr io.Writer, cmd string, names []string, set []*scenario.Scenario) bool {
	seen := make(map[string]bool, len(names)+len(set))
	check := func(n string) bool {
		if seen[n] {
			fmt.Fprintf(stderr, "agave %s: duplicate scenario name %q on the scenario axis\n", cmd, n)
			return false
		}
		seen[n] = true
		return true
	}
	for _, n := range names {
		if !check(n) {
			return false
		}
	}
	for _, sc := range set {
		if !check(sc.Name) {
			return false
		}
	}
	return true
}

// genFlags bundles the generated-scenario knobs of the suite subcommand.
type genFlags struct {
	n        int
	seed     uint64
	apps     int
	events   int
	pressure int
	inputs   int
	faults   int
}

// planFlags bundles the matrix-building flags shared by the suite and fleet
// subcommands: both subcommands resolve an identical plan from identical
// flags, so a fleet sweep always has an exact serial counterpart.
type planFlags struct {
	names        []string
	seedList     string
	ablations    bool
	scenarioList string
	scenarioDir  string
	gen          genFlags
}

// buildPlan resolves the shared matrix flags into a run plan. On failure it
// reports (zero plan, exit code, false) with the diagnostic already printed.
func buildPlan(stderr io.Writer, cmd string, cfg core.Config, pf planFlags) (suite.Plan, int, bool) {
	names := pf.names
	if len(names) == 0 {
		names = core.SuiteNames()
	}
	known := make(map[string]bool)
	for _, n := range core.SuiteNames() {
		known[n] = true
	}
	for _, n := range names {
		if !known[n] {
			fmt.Fprintf(stderr, "agave %s: unknown benchmark %q\n", cmd, n)
			return suite.Plan{}, 1, false
		}
	}
	var scenarios []string
	if pf.scenarioList != "" {
		knownSc := make(map[string]bool)
		for _, n := range core.ScenarioNames() {
			knownSc[n] = true
		}
		for _, n := range strings.Split(pf.scenarioList, ",") {
			n = strings.TrimSpace(n)
			if !knownSc[n] {
				fmt.Fprintf(stderr, "agave %s: unknown scenario %q\n", cmd, n)
				return suite.Plan{}, 1, false
			}
			scenarios = append(scenarios, n)
		}
	}
	// Ad-hoc scenario axes: every *.json document of -scenario-dir, then
	// -gen-scenarios generated sessions at consecutive generation seeds.
	// Names must stay unique across the whole scenario axis — two cells
	// with one name would alias in reports and summaries.
	gen := pf.gen
	var set []*scenario.Scenario
	if pf.scenarioDir != "" {
		loaded, err := scenario.LoadDir(pf.scenarioDir)
		if err != nil {
			fmt.Fprintf(stderr, "agave %s: %v\n", cmd, err)
			return suite.Plan{}, 1, false
		}
		set = append(set, loaded...)
	}
	if gen.n < 0 {
		fmt.Fprintf(stderr, "agave %s: -gen-scenarios must not be negative (got %d)\n", cmd, gen.n)
		return suite.Plan{}, 2, false
	}
	// The sibling knobs validate the same way: zero means "use the
	// default", but a negative value is a typo, not a request.
	if gen.apps < 0 || gen.events < 0 || gen.pressure < 0 || gen.inputs < 0 || gen.faults < 0 {
		fmt.Fprintf(stderr, "agave %s: -gen-apps, -gen-events, -gen-pressure, -gen-inputs, and -gen-faults must not be negative (got %d/%d/%d/%d/%d)\n",
			cmd, gen.apps, gen.events, gen.pressure, gen.inputs, gen.faults)
		return suite.Plan{}, 2, false
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
	if !uniqueScenarioAxis(stderr, cmd, scenarios, set) {
		return suite.Plan{}, 1, false
	}
	seeds, ok := parseSeeds(stderr, cmd, cfg.Seed, pf.seedList)
	if !ok {
		return suite.Plan{}, 2, false
	}
	plan := suite.Plan{Benchmarks: names, Scenarios: scenarios, ScenarioSet: set,
		Seeds: seeds, Ablations: []suite.Ablation{suite.Baseline}}
	if pf.ablations {
		plan.Ablations = suite.DefaultAblations
	}
	return plan, 0, true
}

// suiteCmd executes the suite subcommand: build the run matrix — benchmarks,
// named scenarios, directory-loaded scenario files, and generated scenarios
// are all plan axes — execute it on the worker pool, and render per-run rows
// plus the cross-seed summary, which is the fleet report of the same job.
func suiteCmd(stdout, stderr io.Writer, cfg core.Config, pf planFlags, parallel int, asJSON bool, shardSize int) int {
	plan, code, ok := buildPlan(stderr, "suite", cfg, pf)
	if !ok {
		return code
	}
	spec, err := report.FleetSpec(cfg, plan, shardSize)
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
	if n := len(plan.Scenarios) + len(plan.ScenarioSet); n > 0 {
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
func scenarioCmd(stdout, stderr io.Writer, cfg core.Config, names []string,
	parallel int, seedList string, ablations, asJSON, list bool, filePath, exportName string) int {
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
	var set []*scenario.Scenario
	if filePath != "" {
		sc, err := scenario.FromFile(filePath)
		if err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
		set = append(set, sc)
	}
	if len(names) == 0 && len(set) == 0 {
		fmt.Fprintln(stderr, "agave scenario: scenario name required (or -list, -file, -export)")
		return 2
	}
	for _, n := range names {
		if _, err := scenario.ByName(n); err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
	}
	if !uniqueScenarioAxis(stderr, "scenario", names, set) {
		return 1
	}
	seeds, ok := parseSeeds(stderr, "scenario", cfg.Seed, seedList)
	if !ok {
		return 2
	}
	plan := suite.Plan{Scenarios: names, ScenarioSet: set, Seeds: seeds,
		Ablations: []suite.Ablation{suite.Baseline}}
	if ablations {
		plan.Ablations = suite.DefaultAblations
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
		plan.Size(), len(plan.Scenarios)+len(plan.ScenarioSet), len(plan.Seeds), len(plan.Ablations))
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
