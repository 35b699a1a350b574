package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/kernel"
	"agave/internal/report"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/spec"
	"agave/internal/stats"
	"agave/internal/suite"
)

// workload is one closed-loop op stream with a single client: this process.
type workload interface {
	// setup builds the workload's inputs and runs one untimed round; it
	// returns that round's digest of every item.
	setup() (map[string]string, error)
	// round runs one round of ops and records them in the bench; timed
	// rounds count toward the end-to-end metrics.
	round(timed bool) error
	checker() *checks
}

// workloads lists the benchmark's workloads; README.md says why each one was
// chosen.
var workloads = []struct {
	name  string
	build func(b *bench) workload
}{
	{"paper-sweep", newPaperSweep},
	{"dense-session", newDenseSession},
	{"fleet-sweep", newFleetSweep},
}

func workloadByName(name string) func(*bench) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.build
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sizes fixes how much work each workload does. fullSizes is the benchmark;
// the self-tests shrink it.
type sizes struct {
	// sim is the run configuration; its Seed is replaced by the workload
	// seed.
	sim core.Config
	// benchmarks is one paper-sweep pass, in order.
	benchmarks []string
	// dense is the dense-session generator config; denseSessions sessions
	// are generated from it with seeds derived from the workload seed.
	dense         scenario.GenConfig
	denseSessions int
	// scenarioDir holds the committed scenario documents of the fleet plan;
	// docs limits how many of them the plan takes (0 = all).
	scenarioDir string
	docs        int
	// chaos generated sessions join the fleet plan, made from chaosGen with
	// generator seeds derived from the workload seed.
	chaos    int
	chaosGen scenario.GenConfig
	// probeDiv divides every probe's iteration count.
	probeDiv int
}

func fullSizes() sizes {
	return sizes{
		sim:           core.DefaultConfig(),
		benchmarks:    core.SuiteNames(),
		dense:         scenario.GenConfig{Apps: 50, Events: 2000, Pressure: 2, Inputs: 200},
		denseSessions: 7,
		scenarioDir:   filepath.Join("testdata", "scenarios"),
		chaos:         2,
		chaosGen:      scenario.GenConfig{Pressure: 1, Inputs: 20, Faults: 4},
		probeDiv:      1,
	}
}

// bench is the state of one benchmark process.
type bench struct {
	cfg     config
	scratch string
	log     io.Writer
	rec     *recorder // nil in untraced runs
	samples []opSample
	// hostS is the host time of the timed rounds: the denominator of
	// sim_s_per_s.
	hostS float64
	// layer holds per-event values of the per-layer metrics that are
	// medians; counts holds the per-op work counts, which are averaged.
	layer  map[string][]float64
	counts map[string][]float64
	// busyNS and slotNS total the fleet workers' shard time and the worker
	// slots (workers x sweep time) of the traced sweeps.
	busyNS, slotNS int64
	opSeq          int
}

func newBench(cfg config, scratch string, log io.Writer) *bench {
	b := &bench{cfg: cfg, scratch: scratch, log: log,
		layer: map[string][]float64{}, counts: map[string][]float64{}}
	if cfg.trace {
		b.rec = newRecorder()
	}
	return b
}

// opSample is one op: its host time, the simulated seconds it completed, and
// whether its output check passed.
type opSample struct {
	ms, simS      float64
	timed, failed bool
}

func (b *bench) failed() int {
	n := 0
	for _, s := range b.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// nextOp numbers ops (and set-up rounds) for the trace.
func (b *bench) nextOp() int {
	b.opSeq++
	return b.opSeq
}

// note records one value of a per-layer metric; traced runs only.
func (b *bench) note(metric string, v float64) {
	if b.rec != nil {
		b.layer[metric] = append(b.layer[metric], v)
	}
}

// count records one op's value of a per-op work count; traced runs only.
func (b *bench) count(metric string, v float64) {
	if b.rec != nil {
		b.counts[metric] = append(b.counts[metric], v)
	}
}

// maxFailureReports bounds how many failed ops a run describes on standard
// error; the result still counts every one.
const maxFailureReports = 10

// record adds a checked op to the bench.
func (b *bench) record(c *checks, item string, ms, simS float64, err error, digest string, timed bool) {
	failed := err != nil || !c.ok(item, digest)
	if failed && b.failed() < maxFailureReports {
		why := fmt.Sprintf("digest %s, expected %s", digest, c.expect(item))
		if err != nil {
			why = err.Error()
		}
		fmt.Fprintf(b.log, "perfbench: %s op %s failed: %s\n", c.workload, item, why)
	}
	b.samples = append(b.samples, opSample{ms: ms, simS: simS, timed: timed, failed: failed})
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func simSeconds(t sim.Ticks) float64 { return float64(t) / float64(sim.Second) }

// runDigest is a run's output identity: the stats fingerprint plus the
// census counts (and, for SPEC, the kernel's checksum).
func runDigest(r *core.Result) string {
	d := fmt.Sprintf("%016x/%d/%d/%d/%d/%d", r.Stats.Fingerprint(), r.Processes, r.Threads,
		r.LiveProcesses, r.CodeRegions, r.DataRegions)
	if r.IsSPEC {
		d += fmt.Sprintf("/%x", r.Checksum)
	}
	return d
}

// --- paper-sweep ---

// paperSweep runs the 19 Agave workloads and the 6 SPEC baselines through a
// one-worker suite engine, then builds the paper's figures and tables from
// the pass, as `agave all` does. One op is one benchmark run.
type paperSweep struct {
	checks
	b       *bench
	cfg     core.Config
	specs   []suite.RunSpec
	figures string // digest of the first set-up pass's rendered figures
}

func newPaperSweep(b *bench) workload {
	cfg := b.cfg.sizes.sim
	cfg.Seed = b.cfg.seed
	return &paperSweep{checks: b.checksFor("paper-sweep"), b: b, cfg: cfg}
}

func (p *paperSweep) setup() (map[string]string, error) {
	p.specs = suite.Plan{Benchmarks: p.b.cfg.sizes.benchmarks, Seeds: []uint64{p.cfg.Seed}}.Specs()
	ops, figures, _ := p.pass(false, p.b.nextOp())
	digests := map[string]string{}
	for _, o := range ops {
		if o.err != nil {
			return nil, fmt.Errorf("%s: %w", o.spec.Benchmark, o.err)
		}
		digests[o.spec.Benchmark] = runDigest(o.res)
	}
	if p.figures == "" {
		p.figures = figures
	} else if figures != p.figures {
		return nil, fmt.Errorf("rendered figures differ between set-up passes")
	}
	return digests, nil
}

func (p *paperSweep) round(timed bool) error {
	op := p.b.nextOp()
	ops, figures, host := p.pass(p.b.rec != nil, op)
	for _, o := range ops {
		digest := ""
		if o.res != nil {
			digest = runDigest(o.res)
		}
		p.b.record(&p.checks, o.spec.Benchmark, o.ms, simSeconds(o.ticks), o.err, digest, timed)
	}
	if figures != "" && figures != p.figures {
		return fmt.Errorf("paper-sweep: pass %d rendered different figures than the set-up pass", op)
	}
	if timed {
		p.b.hostS += host
	}
	return nil
}

type paperOp struct {
	spec  suite.RunSpec
	res   *core.Result
	ms    float64
	ticks sim.Ticks
	err   error
}

// pass runs every spec once and builds the figures. split runs each op as
// the sequence of public calls core.RunAgave / core.RunSPEC make, with a
// span around each. It returns the ops, a digest of the rendered figures
// (empty when a run failed) and the pass's host seconds.
func (p *paperSweep) pass(split bool, id int) ([]paperOp, string, float64) {
	rec := p.b.rec
	ops := make([]paperOp, len(p.specs))
	for i, s := range p.specs {
		// The engine stops dispatching after a failed run.
		ops[i] = paperOp{spec: s, err: errors.New("not run: an earlier run of the pass failed")}
	}
	passSpan := rec.begin("pass", -1, id)
	var opNS int64
	eng := suite.Engine[*core.Result]{
		Parallel: 1,
		Run: func(s suite.RunSpec) (*core.Result, sim.Ticks, error) {
			span := rec.begin(s.Benchmark, passSpan, id)
			t0 := time.Now()
			var r *core.Result
			var ticks sim.Ticks
			var err error
			if split {
				r, ticks, err = p.split(s, span, id)
			} else {
				r, ticks, err = core.RunOne(p.cfg, s)
			}
			ops[s.Index] = paperOp{spec: s, res: r, ms: millis(time.Since(t0)), ticks: ticks, err: err}
			opNS += rec.end(span)
			return r, ticks, err
		},
	}
	t0 := time.Now()
	outs, err := eng.Execute(p.specs)
	figures := ""
	var figNS int64
	if err == nil {
		span := rec.begin("report.figures", passSpan, id)
		results := make([]*core.Result, len(outs))
		for i, o := range outs {
			results[i] = o.Result
		}
		figures = renderFigures(results)
		figNS = rec.end(span)
	}
	host := time.Since(t0).Seconds()
	passNS := rec.end(passSpan)
	if split && figures != "" {
		p.b.note("report.figures_ms", float64(figNS)/1e6)
		p.b.note("suite.overhead_us_per_op", float64(passNS-opNS-figNS)/1e3/float64(len(ops)))
	}
	return ops, figures, host
}

// renderFigures builds and renders what `agave all` prints — Figures 1-4,
// Table I and the Section III census — and returns a digest of the text.
func renderFigures(results []*core.Result) string {
	var buf bytes.Buffer
	for _, fig := range []report.Figure{report.Fig1(results), report.Fig2(results), report.Fig3(results), report.Fig4(results)} {
		report.WriteTable(&buf, fig)
	}
	report.WriteTable1(&buf, report.Table1(results), 6)
	report.WriteScalars(&buf, report.Scalars(results))
	code, data := report.SuiteRegionCounts(results)
	fmt.Fprintf(&buf, "Agave suite-wide: %d instruction regions, %d data regions\n", code, data)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// split runs one spec as the public calls core.RunOne makes, with a span
// around each, and returns the same result core.RunOne would.
func (p *paperSweep) split(s suite.RunSpec, parent, op int) (*core.Result, sim.Ticks, error) {
	cfg := p.cfg
	cfg.Seed = s.Seed
	cfg.DisableJIT = cfg.DisableJIT || s.Ablation.DisableJIT
	cfg.DirtyRectComposition = cfg.DirtyRectComposition || s.Ablation.DirtyRectComposition
	rec, b := p.b.rec, p.b
	ms := func(id int) float64 { return float64(rec.end(id)) / 1e6 }

	if core.IsSPEC(s.Benchmark) {
		bm, err := spec.ByName(s.Benchmark)
		if err != nil {
			return nil, 0, err
		}
		k := kernel.New(kernel.Config{Quantum: cfg.Quantum, Seed: cfg.Seed})
		id := rec.begin("spec.Launch", parent, op)
		env := spec.Launch(k, bm)
		rec.end(id)
		id = rec.begin("kernel.Run/spec", parent, op)
		k.Run(cfg.Duration)
		b.note("spec.run_ms_per_sim_s", ms(id)/simSeconds(cfg.Duration))
		r := census(s.Benchmark, true, k, cfg, env.Checksum)
		id = rec.begin("kernel.Shutdown", parent, op)
		k.Shutdown()
		rec.end(id)
		countRun(b, r)
		return r, cfg.Duration, nil
	}

	w, err := apps.ByName(s.Benchmark)
	if err != nil {
		return nil, 0, err
	}
	k := kernel.New(kernel.Config{Quantum: cfg.Quantum, Seed: cfg.Seed})
	id := rec.begin("android.Boot", parent, op)
	sys := android.Boot(k)
	b.note("android.boot_ms", ms(id))
	sys.Compositor.DirtyRectOnly = cfg.DirtyRectComposition
	id = rec.begin("apps.Launch", parent, op)
	app := apps.Launch(sys, w)
	b.note("apps.launch_ms", ms(id))
	if cfg.DisableJIT {
		app.VM.JITEnabled = false
	}
	id = rec.begin("kernel.Run/warmup", parent, op)
	k.Run(cfg.Warmup)
	b.note("kernel.warmup_ms", ms(id))
	k.Stats.Reset()
	id = rec.begin("kernel.Run/measure", parent, op)
	k.Run(cfg.Warmup + cfg.Duration)
	b.note("kernel.measure_ms_per_sim_s", ms(id)/simSeconds(cfg.Duration))
	r := census(s.Benchmark, false, k, cfg, 0)
	b.count("gfx.frames_per_op", float64(sys.Compositor.Frames))
	b.count("dalvik.compiles_per_op", float64(app.VM.CompilesDone()))
	id = rec.begin("kernel.Shutdown", parent, op)
	k.Shutdown()
	b.note("kernel.shutdown_ms", ms(id))
	countRun(b, r)
	return r, cfg.Warmup + cfg.Duration, nil
}

// census builds the result core.RunAgave / core.RunSPEC return.
func census(name string, isSPEC bool, k *kernel.Kernel, cfg core.Config, checksum uint64) *core.Result {
	return &core.Result{
		Benchmark:     name,
		IsSPEC:        isSPEC,
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

func countRun(b *bench, r *core.Result) {
	b.count("stats.refs_per_op", float64(r.Stats.Total()))
	b.count("stats.cells_per_op", float64(r.Stats.Cells()))
}

// --- dense-session ---

// denseSession runs generated 50-app sessions at ten times the default event
// density, with memory pressure and input gestures. One op is one session;
// one round runs each of the run's sessions once.
type denseSession struct {
	checks
	b        *bench
	cfg      core.Config
	sessions []*scenario.Scenario
	// gc and sched accumulate runtime/metrics deltas over traced ops.
	gcCPU, allCPU float64
	sched         []uint64
	schedBuckets  []float64
}

func newDenseSession(b *bench) workload {
	cfg := b.cfg.sizes.sim
	cfg.Seed = b.cfg.seed
	return &denseSession{checks: b.checksFor("dense-session"), b: b, cfg: cfg}
}

// setup generates the run's sessions. Their generator seeds derive from the
// workload seed: one session's host cost and memory depend on its seed by
// more than the benchmark's bounds, so a run averages over several.
func (d *denseSession) setup() (map[string]string, error) {
	n := d.b.cfg.sizes.denseSessions
	d.sessions = d.sessions[:0]
	for i := 0; i < n; i++ {
		gen := d.b.cfg.sizes.dense
		gen.Seed = d.b.cfg.seed*uint64(n) + uint64(i)
		id := d.b.rec.begin("scenario.Generate", -1, -1)
		d.sessions = append(d.sessions, scenario.Generate(gen))
		d.b.note("scenario.gen_ms", float64(d.b.rec.end(id))/1e6)
	}
	digests := map[string]string{}
	for _, sc := range d.sessions {
		r, err := core.RunScenarioDef(sc, d.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		digests[sc.Name] = runDigest(r)
	}
	return digests, nil
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func (d *denseSession) round(timed bool) error {
	for _, sc := range d.sessions {
		d.session(sc, timed)
	}
	return nil
}

func (d *denseSession) session(sc *scenario.Scenario, timed bool) {
	rec, b := d.b.rec, d.b
	op := b.nextOp()
	var before, after runtime.MemStats
	var m0 []metrics.Sample
	if rec != nil {
		m0 = readRuntime()
		runtime.ReadMemStats(&before)
	}
	id := rec.begin("core.RunScenarioDef", -1, op)
	t0 := time.Now()
	r, err := core.RunScenarioDef(sc, d.cfg)
	elapsed := time.Since(t0)
	rec.end(id)
	if rec != nil {
		runtime.ReadMemStats(&after)
		d.accumulate(m0, readRuntime())
		b.note("core.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	digest := ""
	if err == nil {
		digest = runDigest(r)
		b.count("kernel.processes_per_op", float64(r.Processes))
		b.count("kernel.threads_per_op", float64(r.Threads))
		b.count("kernel.lmk_kills_per_op", float64(r.Session.LMKKills))
		b.count("android.inputs_dispatched_per_op", float64(r.Session.InputDispatched))
	}
	b.record(&d.checks, sc.Name, millis(elapsed), simSeconds(d.cfg.Warmup+d.cfg.Duration), err, digest, timed)
	if timed {
		b.hostS += elapsed.Seconds()
	}
}

func readRuntime() []metrics.Sample {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s
}

// accumulate adds one op's GC CPU time, total CPU time and scheduling
// latency histogram to the session's totals.
func (d *denseSession) accumulate(before, after []metrics.Sample) {
	d.gcCPU += after[0].Value.Float64() - before[0].Value.Float64()
	d.allCPU += after[1].Value.Float64() - before[1].Value.Float64()
	h0, h1 := before[2].Value.Float64Histogram(), after[2].Value.Float64Histogram()
	if d.sched == nil {
		d.sched = make([]uint64, len(h1.Counts))
		d.schedBuckets = h1.Buckets
	}
	for i := range h1.Counts {
		d.sched[i] += h1.Counts[i] - h0.Counts[i]
	}
}

// runtimeMetrics reports the GC share of CPU and the median runnable-to-
// running latency over the traced ops.
func (d *denseSession) runtimeMetrics() (gcPct, schedP50ns float64) {
	if d.allCPU > 0 {
		gcPct = d.gcCPU / d.allCPU * 100
	}
	return gcPct, histMedian(d.sched, d.schedBuckets) * 1e9
}

// histMedian returns the midpoint of the bucket holding the median of a
// runtime/metrics histogram (len(buckets) == len(counts)+1).
func histMedian(counts []uint64, buckets []float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if 2*seen >= total {
			lo, hi := buckets[i], buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return buckets[len(buckets)-1]
}

// --- fleet-sweep ---

// shardSize is the fleet's CLI-default shard size.
const shardSize = 8

// fleetSweep shards a plan of the committed scenario documents plus a few
// generated chaos sessions, crossed with the paper's three ablations,
// across nproc worker subprocesses. One op is one sweep: from the fleet.Run
// call to the rendered report.
type fleetSweep struct {
	checks
	b       *bench
	spec    *fleet.Spec
	hash    string
	total   int
	simS    float64
	workers int
	exe     string
	docs    []json.RawMessage
	// launches numbers worker subprocesses, so each writes its own span
	// file; Command is called from the coordinator's goroutines.
	launches atomic.Int64
	// workerRSSMB is the largest peak resident set of any traced worker.
	workerRSSMB float64
	// last holds the latest traced sweep for the fleet probes.
	last struct {
		journal     string
		lines       [][]byte
		fingerprint string
	}
}

func newFleetSweep(b *bench) workload {
	return &fleetSweep{checks: b.checksFor("fleet-sweep"), b: b}
}

func (f *fleetSweep) setup() (map[string]string, error) {
	rec, sz, seed := f.b.rec, f.b.cfg.sizes, f.b.cfg.seed
	id := rec.begin("scenario.LoadDir", -1, -1)
	set, err := scenario.LoadDir(sz.scenarioDir)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if sz.docs > 0 && sz.docs < len(set) {
		set = set[:sz.docs]
	}
	for i := 0; i < sz.chaos; i++ {
		gen := sz.chaosGen
		gen.Seed = seed*uint64(sz.chaos) + uint64(i)
		set = append(set, scenario.Generate(gen))
	}
	plan := suite.Plan{ScenarioSet: set, Seeds: []uint64{seed}, Ablations: suite.DefaultAblations}
	id = rec.begin("fleet.NewWirePlan", -1, -1)
	wire, err := fleet.NewWirePlan(plan)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	cfg := sz.sim
	cfg.Seed = seed
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	f.spec = &fleet.Spec{Config: raw, Plan: wire, ShardSize: shardSize}
	if f.hash, err = f.spec.Hash(); err != nil {
		return nil, err
	}
	f.total = plan.Size()
	f.simS = 0
	for _, s := range plan.Specs() {
		t := cfg.Warmup + cfg.Duration
		if !s.Scenario && core.IsSPEC(s.Benchmark) {
			t = cfg.Duration
		}
		f.simS += simSeconds(t)
	}
	f.docs = wire.ScenarioDocs
	f.workers = min(runtime.NumCPU(), suite.NumShards(f.total, shardSize))
	if f.exe, err = os.Executable(); err != nil {
		return nil, err
	}
	fp, _, err := f.sweep(f.b.nextOp())
	if err != nil {
		return nil, err
	}
	return map[string]string{"sweep": fp}, nil
}

func (f *fleetSweep) round(timed bool) error {
	fp, elapsed, err := f.sweep(f.b.nextOp())
	f.b.record(&f.checks, "sweep", millis(elapsed), f.simS, err, fp, timed)
	if timed {
		f.b.hostS += elapsed.Seconds()
	}
	return nil
}

// sweep runs the whole plan once and returns the report's fingerprint and
// the op's host time.
func (f *fleetSweep) sweep(op int) (string, time.Duration, error) {
	rec := f.b.rec
	journal := filepath.Join(f.b.scratch, fmt.Sprintf("sweep-%d.ckpt", op))
	id := rec.begin("fleet.Run", -1, op)
	t0 := time.Now()
	rep, err := fleet.Run(f.spec, fleet.Options{Workers: f.workers, Command: f.command(op), Checkpoint: journal})
	var out bytes.Buffer
	if err == nil {
		err = report.WriteFleetJSON(&out, rep)
	}
	elapsed := time.Since(t0)
	sweepNS := rec.end(id)
	if err != nil {
		os.Remove(journal)
		return "", elapsed, err
	}
	if rec == nil {
		return rep.Fingerprint, elapsed, os.Remove(journal)
	}
	if err := f.mergeWorkers(op, id, sweepNS); err != nil {
		return "", elapsed, err
	}
	if f.last.journal != "" {
		os.Remove(f.last.journal)
	}
	f.last.journal, f.last.fingerprint = journal, rep.Fingerprint
	f.b.count("fleet.shards_per_op", float64(suite.NumShards(f.total, f.spec.ShardSize)))
	f.b.count("fleet.lines_per_op", float64(f.total))
	return rep.Fingerprint, elapsed, nil
}

// command builds a worker invocation: this binary re-executed in worker
// mode. In traced runs the worker is also told where to write its spans and
// when the coordinator asked for it.
func (f *fleetSweep) command(op int) func() (*exec.Cmd, error) {
	return func() (*exec.Cmd, error) {
		cmd := exec.Command(f.exe)
		cmd.Env = append(os.Environ(), workerEnv+"=1")
		if f.b.rec != nil {
			n := f.launches.Add(1)
			path := filepath.Join(f.b.scratch, fmt.Sprintf("sweep-%d-worker-%d.json", op, n))
			cmd.Env = append(cmd.Env, spanFileEnv+"="+path, commandTimeEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
		}
		return cmd, nil
	}
}

// mergeWorkers folds the span files the sweep's workers wrote into the
// recorder, under the sweep's span, and removes them.
func (f *fleetSweep) mergeWorkers(op, sweepSpan int, sweepNS int64) error {
	rec, b := f.b.rec, f.b
	files, err := filepath.Glob(filepath.Join(f.b.scratch, fmt.Sprintf("sweep-%d-worker-*.json", op)))
	if err != nil {
		return err
	}
	var busyNS int64
	var specs []workerSpec
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var wf workerFile
		if err := json.Unmarshal(data, &wf); err != nil {
			return fmt.Errorf("worker span file %s: %w", path, err)
		}
		os.Remove(path)
		rec.add("fleet.worker_start", wf.CommandNS, wf.EntryNS, sweepSpan, op, wf.PID)
		b.note("fleet.worker_start_ms", float64(wf.EntryNS-wf.CommandNS)/1e6)
		shard := rec.add("fleet.worker_shard", wf.EntryNS, wf.ExitNS, sweepSpan, op, wf.PID)
		busyNS += wf.ExitNS - wf.EntryNS
		f.workerRSSMB = max(f.workerRSSMB, wf.PeakRSSMB)
		for _, s := range wf.Specs {
			rec.add("fleet.worker_spec", s.StartNS, s.EndNS, shard, op, wf.PID)
			b.note("fleet.worker_spec_ms", float64(s.EndNS-s.StartNS)/1e6)
			specs = append(specs, s)
		}
	}
	if len(files) != suite.NumShards(f.total, f.spec.ShardSize) || len(specs) != f.total {
		return fmt.Errorf("fleet-sweep: worker span files hold %d shards and %d lines, want %d and %d",
			len(files), len(specs), suite.NumShards(f.total, f.spec.ShardSize), f.total)
	}
	b.busyNS += busyNS
	b.slotNS += int64(f.workers) * sweepNS
	sort.Slice(specs, func(i, j int) bool { return specs[i].Index < specs[j].Index })
	f.last.lines = f.last.lines[:0]
	for _, s := range specs {
		f.last.lines = append(f.last.lines, []byte(s.Line))
	}
	return nil
}

// --- fleet worker ---

// Worker subprocesses are this binary with workerEnv set. In traced runs
// spanFileEnv names the file the worker writes its spans to, and
// commandTimeEnv carries the Unix time of the coordinator's Command call.
const (
	workerEnv      = "PERFBENCH_FLEET_WORKER"
	spanFileEnv    = "PERFBENCH_SPAN_FILE"
	commandTimeEnv = "PERFBENCH_COMMAND_UNIX_NS"
)

// workerFile is what a traced worker writes: Unix-nanosecond timestamps, so
// the coordinator can place them on its own timeline.
type workerFile struct {
	PID       int          `json:"pid"`
	CommandNS int64        `json:"command_ns"`
	EntryNS   int64        `json:"entry_ns"`
	ExitNS    int64        `json:"exit_ns"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	Specs     []workerSpec `json:"specs"`
}

type workerSpec struct {
	Index   int    `json:"index"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Line    string `json:"line"`
}

// workerMain is the per-spec glue of `agave fleet -worker`: RunWorker reads
// the shard envelope and runs each spec through core.RunOne and
// report.FleetLine.
func workerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	entry := time.Now()
	unix := func(t time.Time) int64 { return entry.UnixNano() + t.Sub(entry).Nanoseconds() }
	path := os.Getenv(spanFileEnv)
	wf := workerFile{PID: os.Getpid(), EntryNS: entry.UnixNano()}
	if path != "" {
		ns, err := strconv.ParseInt(os.Getenv(commandTimeEnv), 10, 64)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench worker: bad", commandTimeEnv, err)
			return 1
		}
		wf.CommandNS = ns
	}
	run := func(raw json.RawMessage, s suite.RunSpec) (fleet.Line, error) {
		var cfg core.Config
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return fleet.Line{}, fmt.Errorf("decode config: %w", err)
		}
		t0 := time.Now()
		r, _, err := core.RunOne(cfg, s)
		if err != nil {
			return fleet.Line{}, err
		}
		line := report.FleetLine(s, r)
		if path != "" {
			enc, err := line.Encode()
			if err != nil {
				return fleet.Line{}, err
			}
			wf.Specs = append(wf.Specs, workerSpec{Index: s.Index, StartNS: unix(t0), EndNS: unix(time.Now()), Line: string(enc)})
		}
		return line, nil
	}
	if err := fleet.RunWorker(stdin, stdout, run); err != nil {
		fmt.Fprintln(stderr, "perfbench worker:", err)
		return 1
	}
	if path == "" {
		return 0
	}
	wf.ExitNS = unix(time.Now())
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench worker:", err)
		return 1
	}
	wf.PeakRSSMB = rss
	data, err := json.Marshal(wf)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}
