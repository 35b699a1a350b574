package suite_test

import (
	"encoding/json"
	"testing"

	"agave/internal/fleet"
	"agave/internal/sim"
	"agave/internal/suite"
)

// TestSummarizeFoldsSeeds pins the seed-fold a sweep's summary goes
// through: engine outputs replayed in plan order through the fleet
// aggregator fold into one cell per unit, in plan order, each aggregating
// its seeds.
func TestSummarizeFoldsSeeds(t *testing.T) {
	plan := suite.Plan{
		Benchmarks: []string{"a", "b"},
		Seeds:      []uint64{1, 2, 3},
	}
	eng := suite.Engine[float64]{
		Parallel: 2,
		Run: func(s suite.RunSpec) (float64, sim.Ticks, error) {
			return float64(s.Seed * 10), 1000, nil
		},
	}
	outs, err := eng.Execute(plan.Specs())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := fleet.NewWirePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.RunSerial(&fleet.Spec{Plan: wire, ShardSize: 8}, fleet.SerialOptions{
		Run: func(_ json.RawMessage, s suite.RunSpec) (fleet.Line, error) {
			return fleet.Line{
				Index:    s.Index,
				Unit:     s.UnitName(),
				Seed:     s.Seed,
				Ablation: s.Ablation.Label(),
				Metrics:  []fleet.Metric{{Name: "value", Value: outs[s.Index].Result}},
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (one per benchmark)", len(rep.Cells))
	}
	if rep.Cells[0].Unit != "a" || rep.Cells[1].Unit != "b" {
		t.Fatalf("cells out of plan order: %s, %s", rep.Cells[0].Unit, rep.Cells[1].Unit)
	}
	for _, c := range rep.Cells {
		if c.Runs != 3 {
			t.Fatalf("%s: folded %d runs, want 3", c.Unit, c.Runs)
		}
		if len(c.Metrics) != 1 || c.Metrics[0].Name != "value" {
			t.Fatalf("%s: metrics = %+v", c.Unit, c.Metrics)
		}
		v := c.Metrics[0].Agg
		if v.Mean() != 20 || v.Min() != 10 || v.Max() != 30 {
			t.Fatalf("%s: value agg = mean %.1f min %.1f max %.1f", c.Unit, v.Mean(), v.Min(), v.Max())
		}
	}
}
