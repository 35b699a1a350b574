package core

import (
	"testing"

	"agave/internal/scenario"
	"agave/internal/sim"
)

// TestEventAtClampsToMeasuredInterval pins the boundary fix: the measured
// interval is half-open, so At=1000 resolves to the final measured tick
// (start+duration-1), never to start+duration — one tick past the last
// measured one, where the event's effects would fall outside the
// measurement.
func TestEventAtClampsToMeasuredInterval(t *testing.T) {
	const start, duration = 1000, 500
	for _, tc := range []struct {
		at   scenario.Fraction
		want sim.Ticks
	}{
		{0, start},
		{500, start + 250},
		{999, start + duration*999/1000},
		{1000, start + duration - 1},
	} {
		if got := eventTime(scenario.Event{At: tc.at}, start, duration); got != tc.want {
			t.Errorf("At=%d resolves to %d, want %d", tc.at, got, tc.want)
		}
	}
	// Degenerate one-tick interval: everything lands on the only tick.
	if got := eventTime(scenario.Event{At: 1000}, 7, 1); got != 7 {
		t.Errorf("At=1000 of a 1-tick interval resolves to %d, want 7", got)
	}
}
