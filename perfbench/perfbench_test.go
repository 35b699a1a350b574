package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
)

// TestMain lets the test binary serve as the fleet-sweep worker, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n, pct int
		want   float64
		ok     bool
	}{
		{100, 90, 90, true},  // rank 90: samples 91..100 lie beyond
		{99, 90, 0, false},   // rank 90 of 99 leaves nine beyond
		{110, 90, 99, true},  // 0.9*110 is 99.00000000000001 in floats; ranks are integers
		{120, 90, 108, true}, // twelve beyond
		{100, 50, 50, true},
		{20, 50, 10, true},
		{19, 50, 0, false},
	} {
		got, err := percentile(seq(c.n), c.pct)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %d) = %v, %v; want %v, ok=%v", c.n, c.pct, got, err, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0}, // overlaps a: a worker beside another
		{name: "a.1", start: 15, end: 20, parent: 1},
		{name: "a.2", start: 35, end: 45, parent: 1}, // runs past its parent: clipped
		{name: "other", start: 0, end: 50, parent: -1},
	}
	want := []int64{100 - 50, 30 - 5 - 5, 30, 5, 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	rows := layerTable(spans)
	if rows[0].name != "other" || rows[0].selfNS != 50 || rows[1].name != "root" {
		t.Errorf("layer table not ordered by self time: %+v", rows)
	}
}

// tinySizes shrinks every workload so a whole run takes well under a second
// or two; the structure (items, rounds, workers, probes) stays the same.
func tinySizes() sizes {
	cfg := core.DefaultConfig()
	cfg.Duration = 20 * sim.Millisecond
	cfg.Warmup = 10 * sim.Millisecond
	return sizes{
		sim:           cfg,
		benchmarks:    []string{"countdown.main", "music.mp3.view.bkg", "999.specrand"},
		dense:         scenario.GenConfig{Apps: 4, Events: 12, Pressure: 1, Inputs: 4},
		denseSessions: 2,
		scenarioDir:   filepath.Join("..", "testdata", "scenarios"),
		docs:          2,
		chaos:         1,
		chaosGen:      scenario.GenConfig{Apps: 3, Pressure: 1, Inputs: 4, Faults: 2},
		probeDiv:      200,
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 0.01, trace: trace,
		workdir: t.TempDir(), sizes: tinySizes()}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, wl, trace)
			res, err := execute(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", wl, trace, m.name, v, ok)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = 0", wl, m.name)
					}
				}
				continue
			}
			checkTraceFile(t, filepath.Join(cfg.workdir, "traces", wl+"-seed1.trace.json"))
		}
	}
}

// checkTraceFile asserts the trace is Chrome Trace Event JSON whose complete
// events nest properly on each track, which is what Perfetto needs to draw
// them as a call stack.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	tracks := map[[2]int][]traceEvent{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			k := [2]int{e.Pid, e.Tid}
			tracks[k] = append(tracks[k], e)
		}
	}
	if len(tracks) < 2 {
		t.Fatalf("%s: %d tracks; want the benchmark's and the fleet workers'", path, len(tracks))
	}
	for k, evs := range tracks {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var open []float64
		for _, e := range evs {
			for len(open) > 0 && open[len(open)-1] <= e.Ts+1e-3 { // ns rounding of the µs floats
				open = open[:len(open)-1]
			}
			if len(open) > 0 && e.Ts+e.Dur > open[len(open)-1]+1e-3 {
				t.Fatalf("%s: track %v: %s [%v,+%v] overlaps its enclosing event", path, k, e.Name, e.Ts, e.Dur)
			}
			open = append(open, e.Ts+e.Dur)
		}
	}
}

func TestWronglyRecordedDigestFailsOps(t *testing.T) {
	cfg := tinyConfig(t, "dense-session", false)
	digests, err := newDenseSession(newBench(cfg, cfg.workdir, io.Discard)).setup()
	if err != nil {
		t.Fatal(err)
	}

	cfg.record = record{"dense-session": {cfg.seed: digests}}
	res, err := execute(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correctly recorded digest: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}

	wrong := map[string]string{}
	for name := range digests {
		wrong[name] = "0000000000000000/1/1/1/1/1"
	}
	cfg.record = record{"dense-session": {cfg.seed: wrong}}
	res, err = execute(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted < minOps {
		t.Fatalf("wrongly recorded digest: correct=%v failed=%d of %d; want every op failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestRecordCoversEveryItem checks digests.txt holds a digest for every item
// of every workload at every recorded seed.
func TestRecordCoversEveryItem(t *testing.T) {
	rec, err := loadRecord()
	if err != nil {
		t.Fatal(err)
	}
	items := map[string]int{"paper-sweep": len(core.SuiteNames()), "dense-session": fullSizes().denseSessions, "fleet-sweep": 1}
	for wl, n := range items {
		for seed := uint64(0); seed < recordSeeds; seed++ {
			if got := len(rec[wl][seed]); got != n {
				t.Errorf("%s seed %d: %d recorded digests, want %d", wl, seed, got, n)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", got, want)
	}
	for i, n := range workloadNames() {
		if i < len(names) && names[i] != n {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, names[i], n)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json has %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.defs {
			j := c.json[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, j, m)
			}
		}
	}
}
