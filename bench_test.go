package agave_test

// The benchmark gate: the suite engine, serial and parallel; the SPEC
// baselines; the scripted, pressure, file-loaded, generated and dense
// scenario sessions; Dalvik dispatch; and the fleet fold. CI runs them with
// -benchmem and fails on a regression against BENCH_baseline.json
// (cmd/benchdiff). The paper's figures, Table I, census and ablations are
// not benchmarks: TestPaperClaims in internal/report checks them against
// pinned values.

import (
	"testing"

	"agave/internal/core"
	"agave/internal/dalvik"
	"agave/internal/fleet"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/suite"
)

// benchConfig is the shortened configuration every simulation bench runs:
// 300 simulated ms after 200 ms of warmup keeps one op short enough for the
// gate's 1 s benchtime.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = 300 * sim.Millisecond
	cfg.Warmup = 200 * sim.Millisecond
	return cfg
}

// benchSubset is the suite benches' cross-section of the 25 benchmarks:
// UI-heavy, Java game, media, background and install workloads, plus two
// SPEC baselines.
var benchSubset = []string{
	"frozenbubble.main", "aard.main", "gallery.mp4.view",
	"music.mp3.view.bkg", "pm.apk.view", "401.bzip2", "429.mcf",
}

// --- suite-engine benches: serial vs sharded execution of one plan ---

// suitePlan is the fixed 14-run matrix (7 benchmarks × 2 seeds) both
// suite benches execute, so ns/op is directly comparable and the parallel
// speedup is tracked in the bench trajectory.
func suitePlan() suite.Plan {
	return suite.Plan{Benchmarks: benchSubset, Seeds: []uint64{1, 2}}
}

func runPlanBench(b *testing.B, workers int) {
	b.Helper()
	plan := suitePlan()
	b.ReportMetric(float64(workers), "workers")
	for i := 0; i < b.N; i++ {
		outs, err := core.RunPlan(benchConfig(), plan, workers)
		if err != nil {
			b.Fatal(err)
		}
		var ticks float64
		for _, o := range outs {
			ticks += float64(o.Ticks)
		}
		b.ReportMetric(ticks/b.Elapsed().Seconds()/1e6*float64(b.N), "Mticks/s")
	}
}

// BenchmarkSuiteSerial executes the plan on one worker — the historical
// core.RunSuite behavior.
func BenchmarkSuiteSerial(b *testing.B) { runPlanBench(b, 1) }

// BenchmarkSuiteParallel executes the identical plan sharded over two
// workers; results are bit-identical to the serial run (see internal/suite's
// determinism test), only the wall clock changes. The worker count is pinned
// so the baseline records the same speedup on every runner: the simulation
// is CPU-bound, so on two or more idle cores it approaches 2x, and on a
// single core the two benches coincide.
func BenchmarkSuiteParallel(b *testing.B) { runPlanBench(b, 2) }

// BenchmarkSPEC runs each SPEC baseline end to end, one core.RunSPEC per op.
// These runs boot no Android stack, so their host time is almost all the
// miniature kernels' own Go code. Reported: the checksum's low 32 bits and
// total attributed references, which pin what the kernel computed and what
// it charged.
func BenchmarkSPEC(b *testing.B) {
	for _, name := range core.SPECNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.RunSPEC(name, benchConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(uint32(r.Checksum)), "checksum_lo32")
				b.ReportMetric(float64(r.Stats.Total()), "total_refs")
			}
		})
	}
}

// BenchmarkScenario runs the scripted multi-app sessions end to end: the
// lifecycle-heavy pair (4 concurrently-live apps; kill/relaunch churn) plus
// the media handoff scenario. Reported metrics: total attributed references
// and the peak process census, so the bench trajectory tracks both engine
// speed and session shape.
func BenchmarkScenario(b *testing.B) {
	for _, name := range []string{"social-burst", "app-churn", "media-marathon"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc, err := scenario.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				r, err := core.RunScenarioDef(sc, benchConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Stats.Total()), "total_refs")
				b.ReportMetric(float64(r.Processes), "processes")
			}
		})
	}
}

// BenchmarkScenarioPressure runs the memory-pressure sessions end to end:
// emergent lowmemorykiller kills under escalating pressure (memory-storm)
// and the trim-then-evict ladder (cached-app-eviction). Reported metrics pin
// the pressure outcome — kills, trims, and total references — so the bench
// trajectory tracks both the engine's speed and the subsystem's behavior.
func BenchmarkScenarioPressure(b *testing.B) {
	for _, name := range []string{"memory-storm", "cached-app-eviction"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc, err := scenario.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				r, err := core.RunScenarioDef(sc, benchConfig())
				if err != nil {
					b.Fatal(err)
				}
				s := r.Session
				b.ReportMetric(float64(s.LMKKills), "lmk_kills")
				b.ReportMetric(float64(s.Trims), "trims")
				b.ReportMetric(float64(r.Stats.Total()), "total_refs")
			}
		})
	}
}

// BenchmarkScenarioFromFile runs the declarative-scenario path end to end:
// read and decode the committed commute scenario document, then execute the
// session — the cost a `agave scenario -file` user pays per run. Decode is
// deliberately inside the measured loop so codec regressions move ns/op.
func BenchmarkScenarioFromFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := scenario.FromFile("testdata/scenarios/commute.json")
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.RunScenarioDef(sc, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stats.Total()), "total_refs")
		b.ReportMetric(float64(len(r.Session.Scenario.Timeline)), "events")
	}
}

// BenchmarkScenarioGenerated runs a 10-app generated session (the ROADMAP's
// session-scale bar) end to end at the default event density. Reported
// metrics pin the generated shape — peak live census and the process count —
// so the bench trajectory tracks both engine speed at scale and generator
// drift.
func BenchmarkScenarioGenerated(b *testing.B) {
	sc := scenario.Generate(scenario.GenConfig{Seed: 1, Apps: 10})
	var ticks float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunScenarioDef(sc, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		ticks += float64(r.Duration)
		b.ReportMetric(float64(r.Session.Scenario.MaxLiveApps()), "max_live")
		b.ReportMetric(float64(r.Processes), "processes")
		b.ReportMetric(float64(r.Stats.Total()), "total_refs")
	}
	b.ReportMetric(ticks/b.Elapsed().Seconds()/1e6, "Mticks/s")
}

// BenchmarkScenarioDense is the hot-path stress gate: a 50-app generated
// session at 10x the default event density with memory pressure and input
// gestures on — every mailbox and pooled structure (binder transactions,
// cpu contexts, batched stats flushes) cycling at full rate. It
// exists so per-tick costs that hide in the 10-app session surface in CI,
// and it runs once under -race in the test job to shake out pool-reuse
// races.
func BenchmarkScenarioDense(b *testing.B) {
	sc := scenario.Generate(scenario.GenConfig{
		Seed:     1,
		Apps:     50,
		Events:   2000, // 10x the 4-per-app default
		Pressure: 2,
		Inputs:   200,
	})
	var ticks float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunScenarioDef(sc, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		ticks += float64(r.Duration)
		b.ReportMetric(float64(r.Session.Scenario.MaxLiveApps()), "max_live")
		b.ReportMetric(float64(r.Session.InputEvents), "input_events")
		b.ReportMetric(float64(r.Processes), "processes")
		b.ReportMetric(float64(r.Stats.Total()), "total_refs")
	}
	b.ReportMetric(ticks/b.Elapsed().Seconds()/1e6, "Mticks/s")
}

// BenchmarkInterpDispatch isolates the Dalvik interpreter's per-bytecode
// dispatch loop from the rest of the stack: one thread executes sumLoop on a
// bare kernel, in pure interpretation (JIT disabled) and under the compiled
// cost model (sumLoop force-promoted to the code cache). Both modes run the
// same loop. Mbytecodes/s is the headline: it moves only when interpreter
// dispatch itself gets faster.
func BenchmarkInterpDispatch(b *testing.B) {
	for _, mode := range []string{"interp", "jit"} {
		b.Run(mode, func(b *testing.B) {
			const n = 20_000
			const bytecodes = 4*n + 4 // sumLoop's dynamic instruction count
			k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 7})
			defer k.Shutdown()
			p := k.NewProcess("benchmark", 1<<20, 1<<20)
			lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
			vm := dalvik.Attach(p, lm, false)
			k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
				ex.PushCode(p.Layout.Text)
				d := vm.LoadDex(ex, dalvik.StockDex("benchmark"))
				if mode == "jit" {
					vm.ForceCompile(d, "sumLoop")
				} else {
					vm.JITEnabled = false
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := vm.Exec(ex, d, "sumLoop", n); got != int64(n)*(n-1)/2 {
						b.Fatalf("sumLoop(%d) = %d", n, got)
					}
				}
				b.StopTimer()
			})
			k.Run(1 << 62) // deadline far beyond any b.N's simulated time
			b.ReportMetric(float64(b.N)*bytecodes/b.Elapsed().Seconds()/1e6, "Mbytecodes/s")
		})
	}
}

// BenchmarkFleetAggregate streams 100k synthetic result lines through the
// fleet coordinator's aggregator — decode, fold, seal shards, report. The
// asserted allocs/op bound is what makes this a constant-memory gate:
// steady-state allocations are per-cell and per-shard, never per-line, so
// the bound holds whether 100k or 10^6 lines stream through.
func BenchmarkFleetAggregate(b *testing.B) {
	const lines = 100_000
	const shardSize = 1024
	units := []string{"alpha", "beta", "gamma", "delta"}
	raws := make([][]byte, lines)
	for i := range raws {
		l := fleet.Line{
			Index:       i,
			Unit:        units[i%len(units)],
			Seed:        uint64(i%5 + 1),
			Ablation:    "base",
			Fingerprint: uint64(i) * 0x9e3779b97f4a7c15,
			Metrics: []fleet.Metric{
				{Name: "total_refs", Value: float64((i + 1) * 100)},
				{Name: "value", Value: 0.1 * float64(i+1)},
			},
		}
		raw, err := l.Encode()
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = raw
	}
	shards := suite.NumShards(lines, shardSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := fleet.NewAggregator(lines, shardSize, "bench")
		var line fleet.Line
		for s := 0; s < shards; s++ {
			lo, hi := suite.ShardRange(lines, shardSize, s)
			for j := lo; j < hi; j++ {
				if err := fleet.DecodeLine(raws[j], &line); err != nil {
					b.Fatal(err)
				}
				if err := agg.Observe(s, raws[j], &line); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := agg.FinishShard(s, -1, ""); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := agg.Report()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs != lines {
			b.Fatalf("report folded %d runs, want %d", rep.Runs, lines)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lines*b.N)/b.Elapsed().Seconds()/1e6, "Mlines/s")
	// The aggregator's own fold is zero-alloc once warm (pinned exactly by
	// TestAggregatorFoldIsAllocationFree in internal/fleet); the per-line
	// allocations measured here are the JSON decoder's transient string
	// and token ones, roughly one per field. The ceiling leaves decode
	// headroom but sits far below what any O(line)-sized aggregator state
	// regression (say a retained []Line) would cost.
	if b.N > 0 {
		allocsPerLine := float64(testing.AllocsPerRun(1, func() {
			agg := fleet.NewAggregator(lines, shardSize, "bench")
			var line fleet.Line
			for s := 0; s < shards; s++ {
				lo, hi := suite.ShardRange(lines, shardSize, s)
				for j := lo; j < hi; j++ {
					if err := fleet.DecodeLine(raws[j], &line); err != nil {
						b.Fatal(err)
					}
					if err := agg.Observe(s, raws[j], &line); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := agg.FinishShard(s, -1, ""); err != nil {
					b.Fatal(err)
				}
			}
		})) / lines
		if allocsPerLine > 20 {
			b.Fatalf("aggregation allocates %.1f per line — the fold is no longer constant-memory", allocsPerLine)
		}
		b.ReportMetric(allocsPerLine, "allocs/line")
	}
}
