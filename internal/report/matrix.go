// Matrix-shaped output for suite-engine sweeps: per-run rows for every
// (benchmark, seed, ablation) cell of a plan, and a JSON export carrying
// them — per-run counter fingerprints included — beside the sweep's fleet
// report, its mean/min/max fold across seeds.

package report

import (
	"encoding/json"
	"fmt"
	"io"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/suite"
)

// MatrixRow is one completed run of a plan, flattened for rendering.
type MatrixRow struct {
	Benchmark   string  `json:"benchmark"`
	Seed        uint64  `json:"seed"`
	Ablation    string  `json:"ablation"`
	WallMS      float64 `json:"wall_ms"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	TotalRefs   uint64  `json:"total_refs"`
	Processes   int     `json:"processes"`
	Threads     int     `json:"threads"`
	CodeRegions int     `json:"code_regions"`
	DataRegions int     `json:"data_regions"`
	Checksum    uint64  `json:"checksum,omitempty"`
	Fingerprint uint64  `json:"fingerprint"`
}

// MatrixRows flattens suite outputs (skipping failed runs) in plan order.
func MatrixRows(outputs []suite.RunOutput[*core.Result]) []MatrixRow {
	rows := make([]MatrixRow, 0, len(outputs))
	for _, o := range outputs {
		if o.Err != nil || o.Result == nil {
			continue
		}
		r := o.Result
		rows = append(rows, MatrixRow{
			Benchmark:   o.Spec.UnitName(),
			Seed:        o.Spec.Seed,
			Ablation:    o.Spec.Ablation.Label(),
			WallMS:      float64(o.Wall.Microseconds()) / 1000,
			TicksPerSec: o.TicksPerSecond(),
			TotalRefs:   r.Stats.Total(),
			Processes:   r.Processes,
			Threads:     r.Threads,
			CodeRegions: r.CodeRegions,
			DataRegions: r.DataRegions,
			Checksum:    r.Checksum,
			Fingerprint: r.Stats.Fingerprint(),
		})
	}
	return rows
}

// WriteMatrix renders one line per run of a plan.
func WriteMatrix(w io.Writer, outputs []suite.RunOutput[*core.Result]) {
	fmt.Fprintf(w, "%-24s %6s %-10s %12s %6s %8s %9s %12s\n",
		"benchmark", "seed", "ablation", "total refs", "procs", "threads", "wall ms", "Mticks/s")
	for _, r := range MatrixRows(outputs) {
		fmt.Fprintf(w, "%-24s %6d %-10s %12d %6d %8d %9.1f %12.1f\n",
			r.Benchmark, r.Seed, r.Ablation, r.TotalRefs, r.Processes,
			r.Threads, r.WallMS, r.TicksPerSec/1e6)
	}
}

// suiteJSON is the top-level JSON document of a suite sweep.
type suiteJSON struct {
	Plan   planJSON      `json:"plan"`
	Runs   []MatrixRow   `json:"runs"`
	Report *fleet.Report `json:"report"`
}

type planJSON struct {
	Benchmarks []string `json:"benchmarks"`
	Scenarios  []string `json:"scenarios,omitempty"`
	Seeds      []uint64 `json:"seeds"`
	Ablations  []string `json:"ablations"`
	Parallel   int      `json:"parallel"`
}

// WriteSuiteJSON emits the full sweep — plan, per-run rows, and the fleet
// report Summarize folded from them — as one indented JSON document.
func WriteSuiteJSON(w io.Writer, p suite.Plan, parallel int,
	outputs []suite.RunOutput[*core.Result], rep *fleet.Report) error {
	doc := suiteJSON{
		Plan: planJSON{Benchmarks: p.Benchmarks, Scenarios: p.ScenarioNames(),
			Seeds: p.Seeds, Parallel: parallel},
		Runs:   MatrixRows(outputs),
		Report: rep,
	}
	for _, a := range p.Ablations {
		doc.Plan.Ablations = append(doc.Plan.Ablations, a.Label())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
