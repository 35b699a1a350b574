package main

// Golden-replay conformance harness. Two layers of committed artifacts lock
// the declarative scenario path down:
//
//   - testdata/scenarios/<name>.json: the bundled scenario library itself,
//     one canonical JSON document per session, embedded into the binary.
//     TestScenarioExportsAreCurrent checks that every document is its own
//     canonical export, so a hand edit that the codec would re-encode
//     differently breaks the build instead of rotting silently.
//   - testdata/goldens/<name>.json: the full JSON report of replaying each
//     committed scenario document through `agave scenario -file` at a fixed
//     seed and duration. TestGoldenReplay byte-compares a fresh replay
//     against the golden, so any change to the codec, the engine, the
//     memory-pressure model, or the report writers shows up as a diff.
//
// After a deliberate behavior change, or after editing a document by hand,
// canonicalise the documents and regenerate the goldens with
//
//	go test ./cmd/agave -run 'TestScenarioExports|TestGoldenReplay' -update
//
// and commit the result; CI re-runs -update and fails if `git status
// --porcelain testdata/` reports anything (modified or untracked), so the
// committed artifacts can never lag.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agave/internal/scenario"
)

var update = flag.Bool("update", false, "canonicalise testdata/scenarios documents and regenerate testdata/goldens replay reports")

// replayArgs fixes the measurement so golden reports are deterministic:
// seed 1, 150 simulated milliseconds after 100 of warmup, JSON output (the
// richest report shape — it carries per-app attribution, pressure outcomes,
// fingerprints, and the file-provenance source field).
var replayArgs = []string{"-seed", "1", "-duration", "150", "-warmup", "100", "-json"}

func repoPath(t *testing.T, parts ...string) string {
	t.Helper()
	return filepath.Join(append([]string{"..", ".."}, parts...)...)
}

// writeOrCompare either refreshes the committed artifact (-update) or
// byte-compares got against it.
func writeOrCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/agave -run 'TestScenarioExports|TestGoldenReplay' -update` to generate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s is stale: regenerated bytes differ from the committed artifact\n"+
			"(diff the file after `go test ./cmd/agave -run 'TestScenarioExports|TestGoldenReplay' -update`)", path)
	}
}

// TestScenarioExportsAreCurrent pins testdata/scenarios to the bundled
// library: every committed document must equal its own canonical export (a
// document the codec would re-encode differently is rewritten under
// -update), and every file in testdata/scenarios and testdata/goldens must
// belong to a bundled scenario. An orphaned golden is deleted under -update;
// a foreign file in testdata/scenarios is always reported, never deleted,
// because it is an authored session missing from the library's name list.
func TestScenarioExportsAreCurrent(t *testing.T) {
	for _, name := range scenario.Names() {
		code, out, errOut := invoke(t, "scenario", "-export", name)
		if code != 0 {
			t.Fatalf("%s: export failed: code=%d stderr=%q", name, code, errOut)
		}
		writeOrCompare(t, repoPath(t, "testdata", "scenarios", name+".json"), []byte(out))
	}
	// Orphan sweep: a renamed or removed scenario leaves a golden behind
	// that the regenerate-and-diff CI gate can never flag.
	known := make(map[string]bool)
	for _, name := range scenario.Names() {
		known[name+".json"] = true
	}
	for _, dir := range []string{"scenarios", "goldens"} {
		entries, err := os.ReadDir(repoPath(t, "testdata", dir))
		if err != nil {
			if *update && os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		for _, e := range entries {
			if known[e.Name()] {
				continue
			}
			orphan := repoPath(t, "testdata", dir, e.Name())
			switch {
			case dir == "scenarios":
				t.Errorf("%s names no bundled scenario (add it to the library's name list, or delete it)", orphan)
			case *update:
				if err := os.Remove(orphan); err != nil {
					t.Fatal(err)
				}
			default:
				t.Errorf("%s belongs to no bundled scenario (run -update to prune it)", orphan)
			}
		}
	}
}

// TestGoldenReplay is the conformance suite proper: every committed scenario
// document is replayed through `agave scenario -file` at the fixed seed and
// duration, and the full JSON report must byte-match the committed golden.
// The loop is driven by the bundled library's name list, so a session added
// to the library without its golden fails here — the golden suite covers
// every bundled scenario by construction.
func TestGoldenReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every bundled scenario")
	}
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			scenarioFile := repoPath(t, "testdata", "scenarios", name+".json")
			if _, err := os.Stat(scenarioFile); err != nil {
				t.Fatalf("bundled scenario has no committed document: %v", err)
			}
			args := append([]string{"scenario", "-file", scenarioFile}, replayArgs...)
			code, out, errOut := invoke(t, args...)
			if code != 0 {
				t.Fatalf("replay failed: code=%d stderr=%q", code, errOut)
			}
			// The report must attribute the run to the scenario by name and
			// carry file provenance before it is worth committing as golden.
			if !strings.Contains(out, fmt.Sprintf("%q: %q", "scenario", name)) {
				t.Fatalf("replay report does not name the scenario:\n%s", out)
			}
			if !strings.Contains(out, fmt.Sprintf("%q: %q", "source", "file:"+name+".json")) {
				t.Fatalf("replay report carries no file provenance:\n%s", out)
			}
			writeOrCompare(t, repoPath(t, "testdata", "goldens", name+".json"), []byte(out))
		})
	}
}

// TestExportFileReplayMatchesBundledReport is the acceptance bar from the
// issue: exporting a bundled scenario and running the export back through
// -file must reproduce the bundled run's default report byte for byte at the
// same seed — the pipe `agave scenario -export commute | agave scenario
// -file /dev/stdin` as a test. Provenance deliberately lives only in the
// JSON document's source field, never in the default matrix, which is what
// makes this identity hold.
func TestExportFileReplayMatchesBundledReport(t *testing.T) {
	for _, name := range []string{"commute", "memory-storm"} {
		code, doc, errOut := invoke(t, "scenario", "-export", name)
		if code != 0 {
			t.Fatalf("export: code=%d stderr=%q", code, errOut)
		}
		path := filepath.Join(t.TempDir(), "exported.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		quick := []string{"-duration", "150", "-warmup", "100"}
		code, bundled, errOut := invoke(t, append([]string{"scenario", name}, quick...)...)
		if code != 0 {
			t.Fatalf("bundled run: code=%d stderr=%q", code, errOut)
		}
		code, replayed, errOut := invoke(t, append([]string{"scenario", "-file", path}, quick...)...)
		if code != 0 {
			t.Fatalf("file replay: code=%d stderr=%q", code, errOut)
		}
		if bundled != replayed {
			t.Errorf("%s: file replay diverged from the bundled report:\n--- bundled\n%s\n--- replayed\n%s",
				name, bundled, replayed)
		}
	}
}
