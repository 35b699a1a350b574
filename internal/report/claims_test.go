package report

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"text/tabwriter"

	"agave/internal/core"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// claim is one row of the paper-versus-model table.
type claim struct {
	what  string  // the quantity, with the figure or table that reports it
	paper string  // the paper's value or band, as the code's comments cite it
	got   float64 // the model's value in this run
	want  float64 // the model's value when the row was pinned
	tol   float64 // allowed |got-want|: 1 pp for shares, 0.1 pp for the quantum pair, 0 for counts
}

// TestPaperClaims checks the numbers of the paper's evaluation (Figures 1-4,
// Table I and the Section III census) and the five ablations against the
// model. It runs the `agave all` sweep (DefaultConfig, seed 1: 19 Agave and
// 6 SPEC runs) plus four ablation runs and compares each row with the value
// the model produced when the row was pinned. `go test -run
// '^TestPaperClaims$' -v ./internal/report` prints the table.
//
// A change that moves a paper number fails here on a named row. If the move
// is intended, re-pin the row and give its before, after and reason in
// CHANGES.md; never widen a tolerance to let a change pass. An ablation is a
// baseline row and an ablated row: where the ablation should move a share,
// the two are pinned further apart than their tolerances reach, so its
// direction cannot flip while both rows hold; the two quantum rows are
// pinned to one value.
func TestPaperClaims(t *testing.T) {
	cfg := core.DefaultConfig()
	results, err := core.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablate := func(name string, edit func(*core.Config)) *core.Result {
		c := cfg
		edit(&c)
		r, err := core.Run(name, c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	jitOff := ablate("frozenbubble.main", func(c *core.Config) { c.DisableJIT = true })
	dirtyRect := ablate("countdown.main", func(c *core.Config) { c.DirtyRectComposition = true })
	q05 := ablate("frozenbubble.main", func(c *core.Config) { c.Quantum = 500 * sim.Microsecond })
	q4 := ablate("frozenbubble.main", func(c *core.Config) { c.Quantum = 4 * sim.Millisecond })

	fig1, fig2, fig3, fig4 := Fig1(results), Fig2(results), Fig3(results), Fig4(results)
	table1 := Table1(results)
	suiteCode, suiteData := SuiteRegionCounts(results)
	var agaveRows, specRows []ScalarRow
	for i, row := range Scalars(results) {
		if results[i].IsSPEC {
			specRows = append(specRows, row)
		} else {
			agaveRows = append(agaveRows, row)
		}
	}

	// share is name's percentage share in bench's series of fig.
	share := func(fig Figure, bench, name string) float64 {
		for _, s := range fig.Series {
			if s.Benchmark == bench {
				return s.Breakdown.Share(name) * 100
			}
		}
		t.Fatalf("%s has no %s series", fig.ID, bench)
		return 0
	}
	// specLeast is name's lowest percentage share over fig's six SPEC series.
	specLeast := func(fig Figure, name string) float64 {
		least := math.Inf(1)
		for i, s := range fig.Series {
			if results[i].IsSPEC {
				least = math.Min(least, s.Breakdown.Share(name)*100)
			}
		}
		return least
	}
	run := func(bench string) *core.Result {
		for _, r := range results {
			if r.Benchmark == bench {
				return r
			}
		}
		t.Fatalf("the sweep has no %s run", bench)
		return nil
	}
	// pct is name's percentage share of the fold m.
	pct := func(m map[string]uint64, name string) float64 { return stats.NewBreakdown(m).Share(name) * 100 }
	// topThread is group's percentage share of bench's references, or 0
	// unless it ranks first.
	topThread := func(bench, group string) float64 {
		b := stats.NewBreakdown(run(bench).Stats.ByThread())
		if len(b.Rows) == 0 || b.Rows[0].Name != group {
			return 0
		}
		return b.Rows[0].Share * 100
	}
	procsLo, procsHi := span(agaveRows, func(r ScalarRow) int { return r.Processes })
	threadsLo, threadsHi := span(agaveRows, func(r ScalarRow) int { return r.Threads })
	codeLo, codeHi := span(agaveRows, func(r ScalarRow) int { return r.CodeRegions })
	dataLo, dataHi := span(agaveRows, func(r ScalarRow) int { return r.DataRegions })
	_, specCodeHi := span(specRows, func(r ScalarRow) int { return r.CodeRegions })
	fb := "frozenbubble.main"

	claims := []claim{
		{"Fig 1: frozenbubble.main mspace, % of instruction reads", "mspace+libdvm majority",
			share(fig1, fb, mem.RegionMspace), 43.30, 1},
		{"Fig 1: frozenbubble.main libdvm.so, % of instruction reads", "mspace+libdvm majority",
			share(fig1, fb, mem.RegionLibDVM), 49.84, 1},
		{"Fig 1: frozenbubble.main app binary, % of instruction reads", "negligible",
			share(fig1, fb, mem.RegionAppBinary), 0.30, 1},
		{"Fig 1: SPEC app binary, % of instruction reads, lowest of six", "nearly all",
			specLeast(fig1, mem.RegionAppBinary), 99.56, 1},

		{"Fig 2: frozenbubble.main gralloc-buffer, % of data references", "visible",
			share(fig2, fb, mem.RegionGralloc), 36.19, 1},
		{"Fig 2: frozenbubble.main least of gralloc, fb0, dalvik-heap, anonymous", "each visible",
			math.Min(math.Min(share(fig2, fb, mem.RegionGralloc), share(fig2, fb, mem.RegionFramebuffer)),
				math.Min(share(fig2, fb, mem.RegionDalvikHeap), share(fig2, fb, mem.RegionAnonymous))), 14.61, 1},
		{"Fig 2: 429.mcf anonymous, % of data references", "-",
			share(fig2, "429.mcf", mem.RegionAnonymous), 98.72, 1},

		{"Fig 3: gallery.mp4.view mediaserver, % of instruction reads", "81%",
			share(fig3, "gallery.mp4.view", "mediaserver"), 94.27, 1},
		{"Fig 4: gallery.mp4.view mediaserver, % of data references", "77%",
			share(fig4, "gallery.mp4.view", "mediaserver"), 93.23, 1},
		{"Fig 3: SPEC benchmark process, % of instruction reads, lowest of six", "nearly all",
			specLeast(fig3, "benchmark"), 99.82, 1},
		{"Fig 4: pm.apk.view dexopt, % of data references", "install workloads only",
			share(fig4, "pm.apk.view", "dexopt"), 4.66, 1},
		{"Fig 3/4: countdown.main dexopt references", "install workloads only",
			float64(run("countdown.main").Stats.ByProcess()["dexopt"]), 0, 0},

		{"Table I: SurfaceFlinger, % of suite references", "43.4%", table1.Share("SurfaceFlinger") * 100, 58.68, 1},
		{"Table I: Compiler, % of suite references", "among the busiest", table1.Share("Compiler") * 100, 3.62, 1},
		{"Table I: GC, % of suite references", "among the busiest", table1.Share("GC") * 100, 2.34, 1},
		{"Table I: AsyncTask, % of suite references", "7.6% (android/looper.go)",
			table1.Share("AsyncTask") * 100, 1.60, 1},
		{"Table I: AudioTrackThread, % of suite references", "5.9% (media/media.go)",
			table1.Share("AudioTrackThread") * 100, 1.23, 1},
		{"Table I: aard.main SurfaceFlinger, % of references, ranked first", "top thread",
			topThread("aard.main", "SurfaceFlinger"), 66.70, 1},

		{"Sec III: processes per Agave app, fewest", "20-34", procsLo, 19, 0},
		{"Sec III: processes per Agave app, most", "20-34", procsHi, 23, 0},
		{"Sec III: threads per Agave app, fewest", "32-147", threadsLo, 63, 0},
		{"Sec III: threads per Agave app, most", "32-147", threadsHi, 67, 0},
		{"Sec III: code regions per Agave app, fewest", "42-55", codeLo, 48, 0},
		{"Sec III: code regions per Agave app, most", "42-55", codeHi, 52, 0},
		{"Sec III: data regions per Agave app, fewest", "32-104", dataLo, 63, 0},
		{"Sec III: data regions per Agave app, most", "32-104", dataHi, 68, 0},
		{"Sec III: SPEC code regions, most", "an order fewer", specCodeHi, 2, 0},
		{"Sec III: code regions, suite-wide", "over 65", float64(suiteCode), 66, 0},
		{"Sec III: data regions, suite-wide", "almost 170", float64(suiteData), 126, 0},

		{"JIT on: frozenbubble.main dalvik-jit-code-cache, % of instruction reads", "falls with JIT off",
			share(fig1, fb, mem.RegionJITCache), 5.22, 1},
		{"JIT off: frozenbubble.main dalvik-jit-code-cache, % of instruction reads", "falls with JIT off",
			pct(jitOff.Stats.ByRegion(stats.IFetch), mem.RegionJITCache), 0.05, 1},
		{"JIT off: frozenbubble.main libdvm.so, % of instruction reads", "rises with JIT off",
			pct(jitOff.Stats.ByRegion(stats.IFetch), mem.RegionLibDVM), 52.68, 1},
		{"Foreground: music.mp3.view mediaserver, % of references", "rises in background",
			pct(run("music.mp3.view").Stats.ByProcess(), "mediaserver"), 21.05, 1},
		{"Background: music.mp3.view.bkg mediaserver, % of references", "rises in background",
			pct(run("music.mp3.view.bkg").Stats.ByProcess(), "mediaserver"), 74.14, 1},
		{"Foreground: music.mp3.view system_server, % of references", "falls in background",
			pct(run("music.mp3.view").Stats.ByProcess(), "system_server"), 77.64, 1},
		{"Background: music.mp3.view.bkg system_server, % of references", "falls in background",
			pct(run("music.mp3.view.bkg").Stats.ByProcess(), "system_server"), 23.88, 1},
		{"Full composition: countdown.main SurfaceFlinger, % of references", "falls with dirty rects",
			pct(run("countdown.main").Stats.ByThread(), "SurfaceFlinger"), 98.33, 1},
		{"Dirty-rect: countdown.main SurfaceFlinger, % of references", "falls with dirty rects",
			pct(dirtyRect.Stats.ByThread(), "SurfaceFlinger"), 49.18, 1},
		{"GC pressure: countdown.main GC, % of references", "grows with churn",
			pct(run("countdown.main").Stats.ByThread(), "GC"), 0.00, 1},
		{"GC pressure: frozenbubble.main GC, % of references", "grows with churn",
			pct(run(fb).Stats.ByThread(), "GC"), 11.83, 1},
		{"Quantum 0.5 ms: frozenbubble.main SurfaceFlinger, % of references", "quantum-invariant",
			pct(q05.Stats.ByThread(), "SurfaceFlinger"), 32.99, 0.1},
		{"Quantum 4 ms: frozenbubble.main SurfaceFlinger, % of references", "quantum-invariant",
			pct(q4.Stats.ByThread(), "SurfaceFlinger"), 32.99, 0.1},
	}

	var table strings.Builder
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nclaim\tpaper\tmodel\tpinned\t±")
	for _, c := range claims {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%g\n", c.what, c.paper, c.got, c.want, c.tol)
		if math.Abs(c.got-c.want) > c.tol+1e-9 {
			t.Errorf("%s: model %.2f, pinned %.2f ± %g (paper: %s)", c.what, c.got, c.want, c.tol, c.paper)
		}
	}
	tw.Flush()
	t.Log(table.String())
}

// span is the least and the greatest f(row) over rows.
func span(rows []ScalarRow, f func(ScalarRow) int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		lo, hi = math.Min(lo, float64(f(r))), math.Max(hi, float64(f(r)))
	}
	return lo, hi
}
