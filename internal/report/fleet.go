package report

import (
	"encoding/json"
	"fmt"
	"io"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/suite"
)

// FleetLine renders one core run as its fleet wire line: plan index, unit
// name, per-run stats fingerprint, and the suite metrics as a name-sorted
// slice (collected from the metrics map, then sorted — the wire order is
// canonical regardless of map iteration).
func FleetLine(spec suite.RunSpec, r *core.Result) fleet.Line {
	metrics := core.SuiteMetrics(r)
	line := fleet.Line{
		Index:       spec.Index,
		Unit:        spec.UnitName(),
		Seed:        spec.Seed,
		Ablation:    spec.Ablation.Label(),
		Fingerprint: r.Stats.Fingerprint(),
		Metrics:     make([]fleet.Metric, 0, len(metrics)),
	}
	for name, v := range metrics {
		line.Metrics = append(line.Metrics, fleet.Metric{Name: name, Value: v}) //agave:allow maporder collect-then-sort: SortMetrics below fixes the canonical order before anything reads the slice
	}
	line.SortMetrics()
	return line
}

// FleetSpec builds the fleet job of plan run on base: the config travels
// as its JSON encoding and the plan in wire form. `agave fleet` and `agave
// suite` both build their job here, so equal flags name the same job and
// fold to the same report.
func FleetSpec(base core.Config, plan suite.Plan, shardSize int) (*fleet.Spec, error) {
	wire, err := fleet.NewWirePlan(plan)
	if err != nil {
		return nil, err
	}
	cfg, err := json.Marshal(base)
	if err != nil {
		return nil, err
	}
	return &fleet.Spec{Config: cfg, Plan: wire, ShardSize: shardSize}, nil
}

// Summarize folds a finished sweep — the plan-order outputs of spec's plan,
// all successful — into its fleet report by replaying each output as its
// FleetLine through fleet.RunSerial. The fleet aggregator is the one
// seed-fold, so a suite's summary is byte-identical to the report `agave
// fleet` prints for the same job.
func Summarize(spec *fleet.Spec, outputs []suite.RunOutput[*core.Result]) (*fleet.Report, error) {
	return fleet.RunSerial(spec, fleet.SerialOptions{
		Run: func(_ json.RawMessage, s suite.RunSpec) (fleet.Line, error) {
			if s.Index >= len(outputs) || outputs[s.Index].Spec.String() != s.String() {
				return fleet.Line{}, fmt.Errorf("no output for plan spec %d", s.Index)
			}
			o := outputs[s.Index]
			if o.Err != nil {
				return fleet.Line{}, o.Err
			}
			return FleetLine(s, o.Result), nil
		},
	})
}

// WriteFleetText renders the fleet report as the operator-facing table: one
// line per (unit, ablation) cell plus the run fingerprint. Everything
// printed derives from the report alone, so serial, fleet, and resumed runs
// print identically.
func WriteFleetText(w io.Writer, r *fleet.Report) {
	fmt.Fprintf(w, "fleet: %d runs in %d shards of %d\n", r.Runs, r.Shards, r.ShardSize)
	fmt.Fprintf(w, "%-28s %-10s %5s %36s\n", "unit", "ablation", "runs", "total refs mean [min, max]")
	for _, c := range r.Cells {
		var refs fmt.Stringer = noRefs{}
		for _, m := range c.Metrics {
			if m.Name == "total_refs" {
				refs = refsAgg{m}
				break
			}
		}
		fmt.Fprintf(w, "%-28s %-10s %5d %36s\n", c.Unit, c.Ablation, c.Runs, refs)
	}
	fmt.Fprintf(w, "fingerprint: %s\n", r.Fingerprint)
}

type noRefs struct{}

func (noRefs) String() string { return "-" }

type refsAgg struct{ m fleet.MetricAgg }

func (r refsAgg) String() string {
	return fmt.Sprintf("%.0f [%.0f, %.0f]", r.m.Agg.Mean(), r.m.Agg.Min(), r.m.Agg.Max())
}

// WriteFleetJSON renders the fleet report as indented canonical JSON — the
// byte-comparable artifact the equivalence and resume tests diff.
func WriteFleetJSON(w io.Writer, r *fleet.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
