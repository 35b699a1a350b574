// Package report regenerates the paper's evaluation artifacts from run
// results: Figure 1 (instruction references by VMA region), Figure 2 (data
// references by region), Figure 3 (instruction references by process),
// Figure 4 (data references by process), Table I (threads ranked by share
// of total memory references), and the Section III scalar census. Output
// formats: aligned text tables, CSV, and ASCII stacked bars.
package report

import (
	"fmt"
	"io"
	"strings"

	"agave/internal/core"
	"agave/internal/stats"
)

// The paper's figure legends, verbatim.
var (
	Fig1Legend = []string{
		"mspace", "libdvm.so", "libskia.so", "OS kernel", "app binary",
		"libstagefright.so", "dalvik-jit-code-cache", "libc.so",
		"libcr3engine-3-1-1.so",
	}
	Fig2Legend = []string{
		"anonymous", "heap", "stack", "OS kernel", "gralloc-buffer",
		"dalvik-heap", "fb0 (frame buffer)", "libdvm.so",
		"dalvik-LinearAlloc",
	}
	Fig3Legend = []string{
		"benchmark", "system_server", "mediaserver", "app_process",
		"ata_sff/0", "ndroid.systemui", "ndroid.launcher", "dexopt",
		"swapper",
	}
	Fig4Legend = []string{
		"benchmark", "system_server", "mediaserver", "app_process",
		"ndroid.systemui", "ndroid.launcher", "swapper", "dexopt",
		"id.defcontainer",
	}
)

// Series is one benchmark's folded breakdown (one stacked bar).
type Series struct {
	Benchmark string
	Breakdown stats.Breakdown
}

// Figure is a full paper figure: a legend and one series per benchmark.
type Figure struct {
	ID     string
	Title  string
	Legend []string
	Series []Series
}

// Fig1 builds "Instruction references by VMA region".
func Fig1(results []*core.Result) Figure {
	return buildFigure("fig1", "Instruction references by VMA region", Fig1Legend,
		results, func(r *core.Result) map[string]uint64 {
			return r.Stats.ByRegion(stats.IFetch)
		})
}

// Fig2 builds "Data references by VMA region".
func Fig2(results []*core.Result) Figure {
	return buildFigure("fig2", "Data references by VMA region", Fig2Legend,
		results, func(r *core.Result) map[string]uint64 {
			return r.Stats.ByRegion(stats.DataKinds...)
		})
}

// Fig3 builds "Instruction references by process".
func Fig3(results []*core.Result) Figure {
	return buildFigure("fig3", "Instruction references by process", Fig3Legend,
		results, func(r *core.Result) map[string]uint64 {
			return r.Stats.ByProcess(stats.IFetch)
		})
}

// Fig4 builds "Data references by process".
func Fig4(results []*core.Result) Figure {
	return buildFigure("fig4", "Data references by process", Fig4Legend,
		results, func(r *core.Result) map[string]uint64 {
			return r.Stats.ByProcess(stats.DataKinds...)
		})
}

func buildFigure(id, title string, legend []string, results []*core.Result,
	fold func(*core.Result) map[string]uint64) Figure {
	fig := Figure{ID: id, Title: title, Legend: legend}
	for _, r := range results {
		b := stats.NewBreakdown(fold(r)).Fold(legend)
		fig.Series = append(fig.Series, Series{Benchmark: r.Benchmark, Breakdown: b})
	}
	return fig
}

// Table1 builds the paper's Table I: thread groups ranked by their share of
// total memory references across the Agave suite (SPEC results are
// excluded, as in the paper).
func Table1(results []*core.Result) stats.Breakdown {
	sum := make(map[string]uint64)
	for _, r := range results {
		if r.IsSPEC {
			continue
		}
		for name, n := range r.Stats.ByThread() {
			sum[name] += n
		}
	}
	return stats.NewBreakdown(sum)
}

// ScalarRow is one benchmark's Section-III census line.
type ScalarRow struct {
	Benchmark   string
	CodeRegions int
	DataRegions int
	Processes   int
	Threads     int
}

// Scalars extracts the census table for every result.
func Scalars(results []*core.Result) []ScalarRow {
	out := make([]ScalarRow, 0, len(results))
	for _, r := range results {
		out = append(out, ScalarRow{
			Benchmark:   r.Benchmark,
			CodeRegions: r.CodeRegions,
			DataRegions: r.DataRegions,
			Processes:   r.Processes,
			Threads:     r.Threads,
		})
	}
	return out
}

// SuiteRegionCounts reports the suite-wide distinct instruction and data
// region counts (the paper: "over 65" and "almost 170").
func SuiteRegionCounts(results []*core.Result) (code, data int) {
	codeSeen := make(map[string]bool)
	dataSeen := make(map[string]bool)
	for _, r := range results {
		if r.IsSPEC {
			continue
		}
		for name := range r.Stats.ByRegion(stats.IFetch) {
			codeSeen[name] = true
		}
		for name := range r.Stats.ByRegion(stats.DataKinds...) {
			dataSeen[name] = true
		}
	}
	return len(codeSeen), len(dataSeen)
}

// WriteTable renders the figure as an aligned percentage table: one row per
// benchmark, one column per legend entry plus "other".
func WriteTable(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(fig.ID), fig.Title)
	cols := append(append([]string{}, fig.Legend...), "other")
	fmt.Fprintf(w, "%-24s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(w, " %10s", truncate(c, 10))
	}
	fmt.Fprintln(w)
	for _, s := range fig.Series {
		fmt.Fprintf(w, "%-24s", s.Benchmark)
		for _, row := range s.Breakdown.Rows {
			fmt.Fprintf(w, " %9.1f%%", row.Share*100)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders the figure as CSV (percent shares).
func WriteCSV(w io.Writer, fig Figure) {
	cols := append(append([]string{}, fig.Legend...), "other")
	fmt.Fprintf(w, "benchmark,%s\n", strings.Join(cols, ","))
	for _, s := range fig.Series {
		fmt.Fprintf(w, "%s", s.Benchmark)
		for _, row := range s.Breakdown.Rows {
			fmt.Fprintf(w, ",%.3f", row.Share*100)
		}
		fmt.Fprintln(w)
	}
}

// WriteBars renders each benchmark as an ASCII stacked bar (each cell ≈2%).
func WriteBars(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(fig.ID), fig.Title)
	glyphs := "ABCDEFGHIJ"
	for i, name := range append(append([]string{}, fig.Legend...), "other") {
		fmt.Fprintf(w, "  %c = %s\n", glyphs[i], name)
	}
	for _, s := range fig.Series {
		var bar strings.Builder
		for i, row := range s.Breakdown.Rows {
			n := int(row.Share*50 + 0.5)
			for j := 0; j < n; j++ {
				bar.WriteByte(glyphs[i])
			}
		}
		fmt.Fprintf(w, "%-24s |%-50s|\n", s.Benchmark, bar.String())
	}
}

// WriteTable1 renders Table I.
func WriteTable1(w io.Writer, b stats.Breakdown, topN int) {
	fmt.Fprintln(w, "TABLE I — Memory references from the most-executed threads")
	fmt.Fprintf(w, "%-20s %s\n", "Thread", "% Total Memory References across Suite")
	for _, row := range b.TopN(topN) {
		fmt.Fprintf(w, "%-20s %.1f\n", row.Name, row.Share*100)
	}
}

// WriteScalars renders the Section-III census.
func WriteScalars(w io.Writer, rows []ScalarRow) {
	fmt.Fprintf(w, "%-24s %12s %12s %10s %8s\n",
		"benchmark", "code regions", "data regions", "processes", "threads")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12d %12d %10d %8d\n",
			r.Benchmark, r.CodeRegions, r.DataRegions, r.Processes, r.Threads)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
