// Command perfbench is the repository benchmark. It drives the simulator's
// public entry points through three closed-loop workloads — paper-sweep,
// dense-session and fleet-sweep — checks the digest of every operation
// against the digests recorded in digests.txt, and prints the end-to-end
// metrics. With -trace 1 it instead times spans around each of its own calls
// into the internal/ packages, runs one probe per layer, writes a Chrome
// Trace Event file and a per-layer table with self times, and prints the
// per-layer metrics. README.md explains the workloads, the metrics and how to
// run it; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload dense-session --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Every timed run completes at least minOps ops, so the 90th percentile has
// at least ten samples beyond it; hardStop ends a run that could not, well
// inside the 180-second limit a run has.
const (
	minOps    = 100
	hardStop  = 150 * time.Second
	setupReps = 3
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, identical for every workload.
var endToEnd = []metricDef{
	{"sim_s_per_s", "s/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workdir holds fleet journals, worker span files, traces and the last
	// untraced result; it must lie inside the checkout.
	workdir string
	sizes   sizes
	// record holds the expected digests; nil checks ops only against the
	// run's own set-up.
	record record
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "paper-sweep, dense-session or fleet-sweep")
	seed := fs.Uint64("seed", 1, "workload seed: Config.Seed and the scenario generator seed")
	seconds := fs.Float64("seconds", 10, "how long the timed ops run, in host seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	recordFile := fs.String("record", "", "recompute the expected digests of every workload at the recorded seeds, write them to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *recordFile != "" {
		if err := writeRecord(*recordFile, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if workloadByName(*wl) == nil {
		fmt.Fprintf(stderr, "perfbench: -workload must be one of %v (got %q)\n", workloadNames(), *wl)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rec, err := loadRecord()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workdir:  filepath.Join(".bench_build", "perfbench"),
		sizes:    fullSizes(),
		record:   rec,
	}
	fmt.Fprintln(stdout, envLine(cfg))
	res, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// envLine describes the machine and build every result was measured on.
func envLine(cfg config) string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return fmt.Sprintf("perfbench env: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit+dirty)
}

// execute sets the workload up setupReps times, runs its timed ops for the
// configured time, checks them, and assembles the result.
func execute(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	b := newBench(cfg, scratch, log)
	w := workloadByName(cfg.workload)(b)
	setups, err := b.setUp(w, setupReps)
	if err != nil {
		return nil, err
	}
	if err := b.measure(w); err != nil {
		return nil, err
	}
	e2e, err := b.endToEnd(setups)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(b.samples), Failed: b.failed(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		fmt.Fprintln(log, formatMetrics("end-to-end", endToEnd, e2e, nil))
		if err := saveLast(cfg, e2e); err != nil {
			return nil, err
		}
		return res, nil
	}
	layers, err := b.traceRest(w)
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	fmt.Fprintln(log, formatMetrics("end-to-end (traced run, beside the last untraced run)", endToEnd, e2e, loadLast(cfg)))
	if err := b.writeTrace(layers); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp runs the workload's set-up reps times and returns each one's host
// time. The first set-up runs in a cold process, so it also fills the
// process-wide caches; its digests become the reference every later set-up
// and every timed op is checked against.
func (b *bench) setUp(w workload, reps int) ([]float64, error) {
	c := w.checker()
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		id := b.rec.begin("setup "+c.workload, -1, -1)
		t0 := time.Now()
		digests, err := w.setup()
		times = append(times, time.Since(t0).Seconds())
		b.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		if i == 0 {
			c.adopt(digests, b.log, b.cfg.seed)
			continue
		}
		for _, item := range sortedKeys(digests) {
			if d := digests[item]; c.ref[item] != d {
				return nil, fmt.Errorf("%s set-up %d: %s digest %s differs from the first set-up's %s", c.workload, i+1, item, d, c.ref[item])
			}
		}
	}
	return times, nil
}

// measure runs whole rounds of timed ops until the configured time has
// passed and at least minOps ops completed.
func (b *bench) measure(w workload) error {
	start := time.Now()
	for time.Since(start).Seconds() < b.cfg.seconds || len(b.samples) < minOps {
		if time.Since(start) > hardStop {
			return fmt.Errorf("%s: only %d ops completed in %s; a run needs %d", b.cfg.workload, len(b.samples), hardStop, minOps)
		}
		if err := w.round(true); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics from the timed ops.
func (b *bench) endToEnd(setups []float64) (map[string]float64, error) {
	var ms []float64
	var simS float64
	for _, s := range b.samples {
		if s.timed {
			ms = append(ms, s.ms)
			simS += s.simS
		}
	}
	sort.Float64s(ms)
	p50, err := percentile(ms, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(ms, 90)
	if err != nil {
		return nil, err
	}
	if b.hostS <= 0 {
		return nil, errors.New("no host time measured")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim_s_per_s": simS / b.hostS,
		"op_ms_p50":   p50,
		"op_ms_p90":   p90,
		"peak_rss_mb": rss,
		"setup_s":     median(setups),
	}, nil
}

// peakRSSMB returns this process's peak resident set in MB: VmHWM of
// /proc/self/status. getrusage's ru_maxrss is no substitute: exec keeps it,
// so it also holds the peak of whatever ran in this process before exec —
// run.sh's shell, itself a forked copy of the program that launched it.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// percentile returns the nearest-rank pct-th percentile of sorted samples.
// It refuses to report one with fewer than ten samples beyond it: a tail
// percentile resting on fewer is a single outlier, not a distribution.
func percentile(sorted []float64, pct int) (float64, error) {
	n := len(sorted)
	rank := (pct*n + 99) / 100 // ceil(pct*n/100), in integers to avoid float rounding
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it; at least 10 are needed", pct, n, n-rank)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lastResult is the end-to-end result of the last untraced run of a
// workload, kept so a traced run can show its tracing overhead beside it.
func lastPath(cfg config) string {
	return filepath.Join(cfg.workdir, "last-"+cfg.workload+".json")
}

func saveLast(cfg config, e2e map[string]float64) error {
	data, err := json.Marshal(e2e)
	if err != nil {
		return err
	}
	return os.WriteFile(lastPath(cfg), data, 0o644)
}

func loadLast(cfg config) map[string]float64 {
	data, err := os.ReadFile(lastPath(cfg))
	if err != nil {
		return nil
	}
	var m map[string]float64
	if json.Unmarshal(data, &m) != nil {
		return nil
	}
	return m
}

// formatMetrics renders metrics as an aligned table; beside, when non-nil,
// adds a column of reference values and the relative difference.
func formatMetrics(title string, defs []metricDef, vals, beside map[string]float64) string {
	s := fmt.Sprintf("perfbench %s:\n", title)
	for _, m := range defs {
		s += fmt.Sprintf("  %-36s %14.4f %-6s", m.name, vals[m.name], m.unit)
		if beside != nil {
			if v, ok := beside[m.name]; ok && v != 0 {
				s += fmt.Sprintf("  untraced %14.4f  %+6.1f%%", v, (vals[m.name]/v-1)*100)
			}
		}
		s += "\n"
	}
	return s
}
