// Suite: execute a run matrix — benchmarks × seeds × ablations — on the
// parallel suite engine, print its runs in deterministic plan order, and
// fold the repeated seeds into the fleet report: mean/min/max per
// (benchmark, ablation) cell plus a fingerprint over every run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"agave/internal/core"
	"agave/internal/report"
	"agave/internal/sim"
	"agave/internal/suite"
)

func main() {
	durationMS := flag.Int64("duration", 300, "measured simulated milliseconds per run")
	flag.Parse()
	if *durationMS <= 0 {
		log.Fatalf("-duration must be a positive number of milliseconds (got %d)", *durationMS)
	}
	cfg := core.DefaultConfig()
	cfg.Duration = sim.Ticks(*durationMS) * sim.Millisecond // default keeps the demo snappy
	cfg.Warmup = 200 * sim.Millisecond

	// 3 benchmarks × 2 seeds × 2 ablations = 12 runs.
	plan := suite.Plan{
		Benchmarks: []string{"frozenbubble.main", "gallery.mp4.view", "401.bzip2"},
		Seeds:      []uint64{1, 2},
		Ablations: []suite.Ablation{
			suite.Baseline,
			{Name: "nojit", DisableJIT: true},
		},
	}

	// The engine shards runs across one worker per core and still returns
	// them in plan order, so every result below is bit-identical to a
	// serial run.
	outputs, err := core.RunPlan(cfg, plan, 0)
	if err != nil {
		log.Fatal(err)
	}
	report.WriteMatrix(os.Stdout, outputs)

	// The seed-fold is the fleet aggregator: a fleet run of this same job
	// reports these bytes exactly.
	spec, err := report.FleetSpec(cfg, plan, 8)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := report.Summarize(spec, outputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	report.WriteFleetText(os.Stdout, rep)
}
