package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// invoke runs one CLI invocation and returns (exit code, stdout, stderr).
func invoke(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := Main(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// quick shortens simulated time so CLI tests stay fast.
var quick = []string{"-duration", "80", "-warmup", "60"}

func TestNoArgsIsUsageError(t *testing.T) {
	code, _, errOut := invoke(t)
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, errOut := invoke(t, "frobnicate")
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestRunRequiresBenchmarkName(t *testing.T) {
	code, _, errOut := invoke(t, "run")
	if code != 2 || !strings.Contains(errOut, "benchmark name required") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	code, _, _ := invoke(t, "suite", "-no-such-flag")
	if code != 2 {
		t.Fatalf("bad flag exit code = %d, want 2", code)
	}
}

// TestRejectsNonPositiveDuration is the satellite regression table: every
// simulating subcommand must refuse an empty or negative measured interval
// with a clear message instead of silently measuring nothing.
func TestRejectsNonPositiveDuration(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"run zero", []string{"run", "countdown.main", "-duration", "0"}},
		{"run negative", []string{"run", "countdown.main", "-duration", "-5"}},
		{"suite zero", []string{"suite", "-bench", "countdown.main", "-duration", "0"}},
		{"suite negative", []string{"suite", "-bench", "countdown.main", "-duration", "-100"}},
		{"scenario zero", []string{"scenario", "commute", "-duration", "0"}},
		{"scenario negative", []string{"scenario", "commute", "-duration", "-1"}},
		{"fig1 zero", []string{"fig1", "-bench", "countdown.main", "-duration", "0"}},
		{"table1 negative", []string{"table1", "-bench", "countdown.main", "-duration", "-7"}},
		{"scalars zero", []string{"scalars", "-bench", "countdown.main", "-duration", "0"}},
		{"all negative", []string{"all", "-bench", "countdown.main", "-duration", "-9"}},
	}
	for _, tc := range cases {
		code, _, errOut := invoke(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, "-duration must be a positive number") {
			t.Errorf("%s: code=%d stderr=%q", tc.name, code, errOut)
		}
	}
	// Negative warmup is equally meaningless.
	code, _, errOut := invoke(t, "run", "countdown.main", "-duration", "50", "-warmup", "-1")
	if code != 2 || !strings.Contains(errOut, "-warmup must not be negative") {
		t.Errorf("negative warmup: code=%d stderr=%q", code, errOut)
	}
}

func TestRunUnknownBenchmarkFails(t *testing.T) {
	code, _, errOut := invoke(t, "run", "no.such.bench")
	if code != 1 || !strings.Contains(errOut, "no.such.bench") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestList(t *testing.T) {
	code, out, _ := invoke(t, "list")
	if code != 0 {
		t.Fatalf("list exit code = %d", code)
	}
	for _, want := range []string{"frozenbubble.main", "401.bzip2", "SPEC CPU2006"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q", want)
		}
	}
}

func TestRunOneBenchmark(t *testing.T) {
	code, out, errOut := invoke(t, append([]string{"run", "countdown.main"}, quick...)...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "countdown.main:") || !strings.Contains(out, "Top instruction regions") {
		t.Fatalf("run output malformed:\n%s", out)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _, errOut := invoke(t, append([]string{"run", "999.specrand",
		"-cpuprofile", cpu, "-memprofile", mem}, quick...)...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) { // pprof files are gzipped
			t.Fatalf("%s is not a profile: % x", p, b[:min(len(b), 8)])
		}
	}
	// An unwritable path fails before anything runs.
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		code, out, errOut := invoke(t, "run", "999.specrand", flag, filepath.Join(dir, "missing", "p.pprof"))
		if code != 1 || out != "" || !strings.Contains(errOut, flag+":") {
			t.Fatalf("%s: code=%d stdout=%q stderr=%q", flag, code, out, errOut)
		}
	}
}

func TestSuiteUnknownBenchmark(t *testing.T) {
	code, _, errOut := invoke(t, "suite", "-bench", "countdown.main,bogus.bench")
	if code != 1 || !strings.Contains(errOut, `unknown benchmark "bogus.bench"`) {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestSuiteRejectsStrayPositional(t *testing.T) {
	// `agave suite countdown.main` must not silently sweep all 25
	// benchmarks; the benchmark set is selected with -bench.
	code, _, errOut := invoke(t, "suite", "countdown.main")
	if code != 2 || !strings.Contains(errOut, "unexpected argument") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestSuiteRejectsAblationFlagConflict(t *testing.T) {
	for _, flag := range []string{"-nojit", "-dirtyrect"} {
		code, _, errOut := invoke(t, "suite", "-bench", "countdown.main", "-ablations", flag)
		if code != 2 || !strings.Contains(errOut, "cannot be combined") {
			t.Fatalf("%s: code=%d stderr=%q", flag, code, errOut)
		}
	}
}

func TestSuiteMalformedSeeds(t *testing.T) {
	for _, seeds := range []string{"1,x,3", "1,,3", "-4", "1;2"} {
		code, _, errOut := invoke(t, "suite", "-bench", "countdown.main", "-seeds", seeds)
		if code != 2 || !strings.Contains(errOut, "bad -seeds entry") {
			t.Fatalf("seeds=%q: code=%d stderr=%q", seeds, code, errOut)
		}
	}
}

func TestSuiteMatrixRuns(t *testing.T) {
	args := append([]string{"suite", "-bench", "countdown.main,999.specrand",
		"-seeds", "1,2", "-parallel", "4"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "suite: 4 runs (2 benchmarks × 2 seeds × 1 ablations)") {
		t.Fatalf("suite header missing:\n%s", out)
	}
	// One matrix row per run, then the cross-seed summary block.
	if got := strings.Count(out, "countdown.main"); got < 3 { // 2 rows + 1 summary
		t.Fatalf("countdown.main appears %d times:\n%s", got, out)
	}
	if !strings.Contains(out, "total refs mean [min, max]") {
		t.Fatalf("multi-seed sweep missing summaries:\n%s", out)
	}
}

func TestSuiteJSON(t *testing.T) {
	args := append([]string{"suite", "-bench", "countdown.main,999.specrand",
		"-seeds", "3,4", "-ablations", "-parallel", "8", "-json"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	var doc struct {
		Plan struct {
			Benchmarks []string `json:"benchmarks"`
			Seeds      []uint64 `json:"seeds"`
			Ablations  []string `json:"ablations"`
			Parallel   int      `json:"parallel"`
		} `json:"plan"`
		Runs []struct {
			Benchmark   string  `json:"benchmark"`
			Seed        uint64  `json:"seed"`
			Ablation    string  `json:"ablation"`
			TotalRefs   uint64  `json:"total_refs"`
			Fingerprint uint64  `json:"fingerprint"`
			WallMS      float64 `json:"wall_ms"`
		} `json:"runs"`
		Summaries []struct {
			Benchmark string                        `json:"benchmark"`
			Ablation  string                        `json:"ablation"`
			Metrics   map[string]map[string]float64 `json:"metrics"`
		} `json:"summaries"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("suite -json is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Runs) != 2*2*3 {
		t.Fatalf("JSON has %d runs, want 12 (2 benchmarks × 2 seeds × 3 ablations)", len(doc.Runs))
	}
	if doc.Plan.Parallel != 8 || len(doc.Plan.Ablations) != 3 {
		t.Fatalf("JSON plan malformed: %+v", doc.Plan)
	}
	if len(doc.Summaries) != 2*3 {
		t.Fatalf("JSON has %d summaries, want 6 (benchmark × ablation cells)", len(doc.Summaries))
	}
	for _, r := range doc.Runs {
		if r.TotalRefs == 0 || r.Fingerprint == 0 {
			t.Fatalf("run %s/seed=%d/%s carries empty stats", r.Benchmark, r.Seed, r.Ablation)
		}
	}
	for _, s := range doc.Summaries {
		if s.Metrics["total_refs"]["mean"] <= 0 {
			t.Fatalf("summary %s/%s missing total_refs agg", s.Benchmark, s.Ablation)
		}
	}
}

// TestSuiteSerialAndParallelSameStdout is the CLI-level determinism check:
// identical plans at -parallel 1 and -parallel 8 must render byte-identical
// matrix output (wall-clock columns are excluded from the comparison since
// real time is not deterministic).
func TestSuiteSerialAndParallelSameStdout(t *testing.T) {
	run := func(parallel string) string {
		args := append([]string{"suite", "-bench",
			"countdown.main,jetboy.main,999.specrand", "-seeds", "5,6",
			"-parallel", parallel}, quick...)
		code, out, errOut := invoke(t, args...)
		if code != 0 {
			t.Fatalf("parallel=%s: code=%d stderr=%q", parallel, code, errOut)
		}
		return out
	}
	stripWall := func(out string) []string {
		var rows []string
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) == 8 && f[0] != "benchmark" { // matrix row: drop wall ms + Mticks/s
				rows = append(rows, strings.Join(f[:6], " "))
			}
		}
		return rows
	}
	serial, par := stripWall(run("1")), stripWall(run("8"))
	if len(serial) != 6 {
		t.Fatalf("expected 6 matrix rows, got %d", len(serial))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("row %d diverged:\nserial:   %s\nparallel: %s", i, serial[i], par[i])
		}
	}
}

func TestScenarioList(t *testing.T) {
	code, out, errOut := invoke(t, "scenario", "-list")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 6 { // header + >= 5 scenarios
		t.Fatalf("scenario -list shows %d lines, want >= 6:\n%s", len(lines), out)
	}
	for _, want := range []string{"commute", "social-burst", "binder-storm", "mediaserver-meltdown", "description"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenario -list missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioRequiresName(t *testing.T) {
	code, _, errOut := invoke(t, "scenario")
	if code != 2 || !strings.Contains(errOut, "scenario name required") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestScenarioUnknownName(t *testing.T) {
	code, _, errOut := invoke(t, "scenario", "no-such-session")
	if code != 1 || !strings.Contains(errOut, "no-such-session") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestScenarioParallelByteIdentical is the acceptance bar: the same
// scenario plan at -parallel 1 and -parallel 8 must emit byte-identical
// stdout — scenario reports carry no wall-clock columns at all.
func TestScenarioParallelByteIdentical(t *testing.T) {
	run := func(parallel string) string {
		args := append([]string{"scenario", "commute", "app-churn",
			"-seeds", "1,2", "-parallel", parallel}, quick...)
		code, out, errOut := invoke(t, args...)
		if code != 0 {
			t.Fatalf("parallel=%s: code=%d stderr=%q", parallel, code, errOut)
		}
		return out
	}
	serial, par := run("1"), run("8")
	if serial != par {
		t.Fatalf("scenario stdout diverged between -parallel 1 and 8:\n--- serial\n%s\n--- parallel\n%s", serial, par)
	}
	if !strings.Contains(serial, "commute") || !strings.Contains(serial, "app-churn") {
		t.Fatalf("scenario matrix missing rows:\n%s", serial)
	}
}

// TestScenarioNamesInterleaveWithFlags pins the argument grammar: scenario
// names may appear before, between, and after flags, because flag.Parse
// stops at the first positional and the CLI resumes parsing after it.
func TestScenarioNamesInterleaveWithFlags(t *testing.T) {
	args := append([]string{"scenario", "-parallel", "2", "commute", "-seeds", "1"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "commute") {
		t.Fatalf("interleaved invocation missed the scenario:\n%s", out)
	}
	// Flags after the name still take effect (JSON mode here).
	code, out, errOut = invoke(t, append([]string{"scenario", "commute", "-json"}, quick...)...)
	if code != 0 || !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Fatalf("trailing -json ignored: code=%d stderr=%q out=%q", code, errOut, out[:min(80, len(out))])
	}
}

func TestScenarioJSON(t *testing.T) {
	args := append([]string{"scenario", "social-burst", "-json", "-parallel", "4"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	var doc struct {
		Plan struct {
			Scenarios []string `json:"scenarios"`
			Seeds     []uint64 `json:"seeds"`
			Ablations []string `json:"ablations"`
		} `json:"plan"`
		Runs []struct {
			Scenario    string `json:"scenario"`
			MaxLiveApps int    `json:"max_live_apps"`
			TotalRefs   uint64 `json:"total_refs"`
			Fingerprint uint64 `json:"fingerprint"`
			Apps        []struct {
				Name  string  `json:"name"`
				Refs  uint64  `json:"refs"`
				Share float64 `json:"share"`
			} `json:"apps"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("scenario -json is not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Scenario != "social-burst" {
		t.Fatalf("JSON runs malformed: %+v", doc.Runs)
	}
	r := doc.Runs[0]
	if r.MaxLiveApps < 3 || len(r.Apps) != 4 {
		t.Fatalf("social-burst JSON: max_live_apps=%d apps=%d", r.MaxLiveApps, len(r.Apps))
	}
	for _, a := range r.Apps {
		if a.Refs == 0 {
			t.Fatalf("app %q attributed no references", a.Name)
		}
	}
	if strings.Contains(out, "wall_ms") {
		t.Fatal("scenario JSON leaks wall-clock fields")
	}
}

// TestScenarioPressureColumnsAndMinFree runs the emergent-kill scenario
// through the CLI: the matrix must carry the lmk/trims columns and name the
// victims, and the -minfree knob must plumb through (an absurdly raised
// waterline turns an otherwise-safe session into a kill zone).
func TestScenarioPressureColumnsAndMinFree(t *testing.T) {
	args := append([]string{"scenario", "memory-storm"}, "-duration", "150", "-warmup", "100")
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "lmk") || !strings.Contains(out, "trims") {
		t.Fatalf("scenario matrix missing pressure columns:\n%s", out)
	}
	if !strings.Contains(out, "lmk victims:") {
		t.Fatalf("memory-storm reported no victims:\n%s", out)
	}
	// commute never comes under default pressure...
	args = append([]string{"scenario", "commute"}, "-duration", "150", "-warmup", "100")
	code, out, errOut = invoke(t, args...)
	if code != 0 {
		t.Fatalf("commute: code=%d stderr=%q", code, errOut)
	}
	if strings.Contains(out, "lmk victims:") {
		t.Fatalf("commute killed under the default waterline:\n%s", out)
	}
	// ...but a raised -minfree waterline makes the same session lethal.
	args = append([]string{"scenario", "commute", "-minfree", "200000"}, "-duration", "150", "-warmup", "100")
	code, out, errOut = invoke(t, args...)
	if code != 0 {
		t.Fatalf("minfree=200000: code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "lmk victims:") {
		t.Fatalf("-minfree 200000 produced no victims:\n%s", out)
	}
}

// TestScenarioJSONCarriesPressureFields: the JSON document exposes the
// kill/trim counters and the victim list.
func TestScenarioJSONCarriesPressureFields(t *testing.T) {
	args := append([]string{"scenario", "memory-storm", "-json"}, "-duration", "150", "-warmup", "100")
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	var doc struct {
		Runs []struct {
			Scenario   string   `json:"scenario"`
			LMKKills   int      `json:"lmk_kills"`
			LMKVictims []string `json:"lmk_victims"`
			Trims      int      `json:"trims"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("got %d runs", len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.LMKKills < 1 || len(r.LMKVictims) != r.LMKKills || r.Trims < 1 {
		t.Fatalf("pressure fields malformed: %+v", r)
	}
}

func TestSuiteWithScenarioAxis(t *testing.T) {
	args := append([]string{"suite", "-bench", "countdown.main",
		"-scenarios", "app-churn", "-parallel", "2"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "suite: 2 runs (1 benchmarks + 1 scenarios × 1 seeds × 1 ablations)") {
		t.Fatalf("suite header missing scenario axis:\n%s", out)
	}
	if !strings.Contains(out, "scenario:app-churn") {
		t.Fatalf("suite matrix missing prefixed scenario row:\n%s", out)
	}
}

func TestSuiteUnknownScenario(t *testing.T) {
	code, _, errOut := invoke(t, "suite", "-bench", "countdown.main", "-scenarios", "bogus")
	if code != 1 || !strings.Contains(errOut, `unknown scenario "bogus"`) {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// writeScenarioFile drops a scenario document into a temp dir and returns
// its path.
func writeScenarioFile(t *testing.T, name, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// validScenarioDoc is a well-formed two-app scenario document the negative
// cases below mutate.
const validScenarioDoc = `{
  "name": "pair",
  "apps": [
    {"name": "a", "workload": "countdown.main"},
    {"name": "b", "workload": "jetboy.main"}
  ],
  "timeline": [
    {"at": 0, "kind": "launch", "app": "a"},
    {"at": 400, "kind": "launch", "app": "b"},
    {"at": 700, "kind": "switchto", "app": "a"}
  ]
}
`

// TestScenarioFileRunsAuthoredDocument: the tentpole happy path — a
// hand-authored JSON session runs through `agave scenario -file` exactly
// like a bundled one.
func TestScenarioFileRunsAuthoredDocument(t *testing.T) {
	path := writeScenarioFile(t, "pair.json", validScenarioDoc)
	code, out, errOut := invoke(t, append([]string{"scenario", "-file", path}, quick...)...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "pair") || !strings.Contains(out, "countdown.main") {
		t.Fatalf("file-loaded scenario matrix malformed:\n%s", out)
	}
	// JSON mode surfaces the file provenance.
	code, out, errOut = invoke(t, append([]string{"scenario", "-file", path, "-json"}, quick...)...)
	if code != 0 {
		t.Fatalf("json: code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, `"source": "file:pair.json"`) {
		t.Fatalf("scenario -json missing file provenance:\n%s", out)
	}
}

// TestScenarioFileRejectsIllFormedDocuments is the negative-path satellite:
// each parser failure mode must exit non-zero through `agave scenario -file`
// with its specific error text on stderr.
func TestScenarioFileRejectsIllFormedDocuments(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{
			"unknown event kind",
			func(s string) string { return strings.Replace(s, `"kind": "switchto"`, `"kind": "teleport"`, 1) },
			`timeline[2]: unknown event kind "teleport"`,
		},
		{
			"event on undeclared app",
			func(s string) string {
				return strings.Replace(s, `"kind": "switchto", "app": "a"`, `"kind": "switchto", "app": "ghost"`, 1)
			},
			`targets undeclared app`,
		},
		{
			"at out of range",
			func(s string) string { return strings.Replace(s, `"at": 700`, `"at": 7000`, 1) },
			`outside [0,1000]`,
		},
		{
			"duplicate app names",
			func(s string) string {
				return strings.Replace(s, `{"name": "b", "workload": "jetboy.main"}`, `{"name": "a", "workload": "jetboy.main"}`, 1)
			},
			`duplicate app "a"`,
		},
		{
			"empty timeline",
			func(s string) string {
				i := strings.Index(s, `"timeline"`)
				return s[:i] + "\"timeline\": []\n}\n"
			},
			`empty timeline`,
		},
	}
	for _, tc := range cases {
		path := writeScenarioFile(t, "bad.json", tc.mutate(validScenarioDoc))
		code, _, errOut := invoke(t, "scenario", "-file", path)
		if code == 0 {
			t.Errorf("%s: agave scenario -file exited 0", tc.name)
			continue
		}
		if !strings.Contains(errOut, tc.wantErr) {
			t.Errorf("%s: stderr %q does not contain %q", tc.name, errOut, tc.wantErr)
		}
		if !strings.Contains(errOut, "bad.json") {
			t.Errorf("%s: stderr %q does not name the file", tc.name, errOut)
		}
	}
	// A missing file is an ordinary run failure, not a usage error.
	code, _, errOut := invoke(t, "scenario", "-file", filepath.Join(t.TempDir(), "absent.json"))
	if code != 1 || !strings.Contains(errOut, "absent.json") {
		t.Fatalf("missing file: code=%d stderr=%q", code, errOut)
	}
}

// TestScenarioFileNameCollision: a file-loaded scenario may not alias a
// named bundled scenario on the same axis — the text matrix carries no
// provenance column, so two cells with one name would be indistinguishable.
func TestScenarioFileNameCollision(t *testing.T) {
	commute := strings.Replace(validScenarioDoc, `"name": "pair"`, `"name": "commute"`, 1)
	path := writeScenarioFile(t, "commute.json", commute)
	code, _, errOut := invoke(t, "scenario", "commute", "-file", path)
	if code != 1 || !strings.Contains(errOut, `duplicate scenario name "commute"`) {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestScenarioRepeatedNameRejected: the same scenario twice on one axis is
// rejected on both subcommands — repeated cells would render identical,
// indistinguishable rows.
func TestScenarioRepeatedNameRejected(t *testing.T) {
	code, _, errOut := invoke(t, "scenario", "commute", "commute")
	if code != 1 || !strings.Contains(errOut, `duplicate scenario name "commute"`) {
		t.Fatalf("scenario: code=%d stderr=%q", code, errOut)
	}
	code, _, errOut = invoke(t, "suite", "-bench", "countdown.main", "-scenarios", "commute,commute")
	if code != 1 || !strings.Contains(errOut, `duplicate scenario name "commute"`) {
		t.Fatalf("suite: code=%d stderr=%q", code, errOut)
	}
}

// TestCrossSubcommandScenarioFlagsRejected: the subcommands share one
// FlagSet, so a flag belonging to the other subcommand parses — it must be
// rejected, never silently ignored (a requested scenario source silently
// absent from the matrix is worse than an error).
func TestCrossSubcommandScenarioFlagsRejected(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"suite -file", []string{"suite", "-bench", "countdown.main", "-file", "x.json"},
			"-file applies to the scenario subcommand"},
		{"suite -export", []string{"suite", "-export", "commute"},
			"-export applies to the scenario subcommand"},
		{"scenario -scenario-dir", []string{"scenario", "commute", "-scenario-dir", "d"},
			"-scenario-dir applies to the suite and fleet subcommands"},
		{"scenario -gen-scenarios", []string{"scenario", "commute", "-gen-scenarios", "3"},
			"-gen-scenarios applies to the suite and fleet subcommands"},
		{"scenario -gen-apps", []string{"scenario", "commute", "-gen-apps", "12"},
			"-gen-apps applies to the suite and fleet subcommands"},
		{"scenario -gen-seed at default", []string{"scenario", "commute", "-gen-seed", "1"},
			"-gen-seed applies to the suite and fleet subcommands"},
		{"-export with names", []string{"scenario", "commute", "-export", "social-burst"},
			"-export cannot be combined"},
		{"-export with -file", []string{"scenario", "-export", "commute", "-file", "x.json"},
			"-export cannot be combined"},
		{"-list with -file", []string{"scenario", "-list", "-file", "x.json"},
			"-list cannot be combined"},
		{"-list with -export", []string{"scenario", "-list", "-export", "commute"},
			"-list cannot be combined"},
		{"-list with names", []string{"scenario", "commute", "-list"},
			"-list cannot be combined"},
		{"run -file", []string{"run", "countdown.main", "-file", "x.json"},
			"-file applies to the scenario subcommand"},
		{"fig1 -scenario-dir", []string{"fig1", "-scenario-dir", "d"},
			"-scenario-dir applies to the suite and fleet subcommands"},
		{"all -export", []string{"all", "-export", "commute"},
			"-export applies to the scenario subcommand"},
		{"gen knob without count", []string{"suite", "-bench", "countdown.main", "-gen-apps", "12"},
			"-gen-apps requires -gen-scenarios"},
		{"gen seed without count", []string{"suite", "-bench", "countdown.main", "-gen-seed", "4"},
			"-gen-seed requires -gen-scenarios"},
	}
	for _, tc := range cases {
		code, _, errOut := invoke(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.wantErr) {
			t.Errorf("%s: code=%d stderr=%q", tc.name, code, errOut)
		}
	}
}

// TestSuiteNegativeGenKnobsRejected: zero selects a default, but a negative
// generator knob is a usage error, matching -gen-scenarios.
func TestSuiteNegativeGenKnobsRejected(t *testing.T) {
	for _, knob := range []string{"-gen-apps", "-gen-events", "-gen-pressure", "-gen-inputs", "-gen-faults"} {
		code, _, errOut := invoke(t, "suite", "-bench", "countdown.main",
			"-gen-scenarios", "1", knob, "-5")
		if code != 2 || !strings.Contains(errOut, "must not be negative") {
			t.Fatalf("%s: code=%d stderr=%q", knob, code, errOut)
		}
	}
}

// TestScenarioExportUnknownName: exporting something not in the library
// fails with the library's error.
func TestScenarioExportUnknownName(t *testing.T) {
	code, _, errOut := invoke(t, "scenario", "-export", "no-such-session")
	if code != 1 || !strings.Contains(errOut, `unknown scenario "no-such-session"`) {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestSuiteScenarioDirAxis: every *.json document of -scenario-dir becomes
// a plan cell, and a duplicate name across the axis is rejected.
func TestSuiteScenarioDirAxis(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pair.json"), []byte(validScenarioDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	solo := strings.Replace(validScenarioDoc, `"name": "pair"`, `"name": "solo"`, 1)
	if err := os.WriteFile(filepath.Join(dir, "solo.json"), []byte(solo), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"suite", "-bench", "countdown.main", "-scenario-dir", dir, "-parallel", "2"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "suite: 3 runs (1 benchmarks + 2 scenarios × 1 seeds × 1 ablations)") {
		t.Fatalf("suite header missing scenario-dir axis:\n%s", out)
	}
	for _, want := range []string{"scenario:pair", "scenario:solo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("suite matrix missing %s:\n%s", want, out)
		}
	}
	// An empty directory is an error, not a silent no-op.
	code, _, errOut = invoke(t, "suite", "-bench", "countdown.main", "-scenario-dir", t.TempDir())
	if code != 1 || !strings.Contains(errOut, "no *.json scenario files") {
		t.Fatalf("empty dir: code=%d stderr=%q", code, errOut)
	}
}

// TestSuiteGeneratedScenarioAxis: -gen-scenarios N expands into N generated
// plan cells at consecutive generation seeds, with the knobs in the names.
func TestSuiteGeneratedScenarioAxis(t *testing.T) {
	args := append([]string{"suite", "-bench", "countdown.main",
		"-gen-scenarios", "2", "-gen-seed", "11", "-gen-apps", "3", "-gen-events", "9",
		"-parallel", "2"}, quick...)
	code, out, errOut := invoke(t, args...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "suite: 3 runs (1 benchmarks + 2 scenarios × 1 seeds × 1 ablations)") {
		t.Fatalf("suite header missing generated axis:\n%s", out)
	}
	for _, want := range []string{"scenario:gen-s11-a3-e9-p0-i0-f0", "scenario:gen-s12-a3-e9-p0-i0-f0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("suite matrix missing %s:\n%s", want, out)
		}
	}
	code, _, errOut = invoke(t, "suite", "-bench", "countdown.main", "-gen-scenarios", "-1")
	if code != 2 || !strings.Contains(errOut, "-gen-scenarios must not be negative") {
		t.Fatalf("negative gen count: code=%d stderr=%q", code, errOut)
	}
}

// TestSuiteScenarioAxisNameCollision: a generated or file-loaded scenario
// may not shadow a bundled scenario selected on the same axis.
func TestSuiteScenarioAxisNameCollision(t *testing.T) {
	dir := t.TempDir()
	commute := strings.Replace(validScenarioDoc, `"name": "pair"`, `"name": "commute"`, 1)
	if err := os.WriteFile(filepath.Join(dir, "commute.json"), []byte(commute), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := invoke(t, "suite", "-bench", "countdown.main",
		"-scenarios", "commute", "-scenario-dir", dir)
	if code != 1 || !strings.Contains(errOut, `duplicate scenario name "commute"`) {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}
