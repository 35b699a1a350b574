package scenario

import (
	"fmt"
	"slices"

	"agave"
)

// bundled names the library's sessions in canonical order, the order
// `agave scenario -list` prints. Each is the committed document
// testdata/scenarios/<name>.json, embedded as agave.Scenarios;
// docs/SCENARIOS.md says what each one exercises and how to add one.
var bundled = []string{
	"commute", "social-burst", "background-sync", "media-marathon",
	"install-storm", "app-churn", "memory-storm", "cached-app-eviction",
	"thumb-scroll", "arcade-rally", "binder-storm", "mediaserver-meltdown",
}

// Library returns the bundled scenarios in canonical order. Each is decoded
// fresh so callers may mutate what they get, mirroring apps.All. A committed
// document that fails to decode is a build defect, so Library panics with
// its name.
func Library() []*Scenario {
	out := make([]*Scenario, len(bundled))
	for i, name := range bundled {
		s, err := ByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

// Names lists the bundled scenario identifiers in order.
func Names() []string { return slices.Clone(bundled) }

// ByName decodes one bundled scenario with the strict codec that -file and
// -scenario-dir use. Its Source stays empty: bundled sessions carry no
// provenance. An unknown name's error is `unknown scenario "x"`, with no
// package prefix, so a command can print it behind its own.
func ByName(name string) (*Scenario, error) {
	if !slices.Contains(bundled, name) {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	path := "testdata/scenarios/" + name + ".json"
	data, err := agave.Scenarios.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %v", path, err)
	}
	return s, nil
}
