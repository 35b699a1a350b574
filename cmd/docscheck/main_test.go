package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agave/internal/lint/analyzers"
	"agave/internal/scenario"
)

// TestRepositoryIsClean runs every gate against this repository: each
// internal package must carry its canonical package comment, every relative
// markdown link must resolve, the scenario-kind, lint-analyzer and fleet-wire
// references must each cover their registries, and the layer map must have
// one section per internal package. This is the same check CI's docs job
// runs, enforced locally by `go test`.
func TestRepositoryIsClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(filepath.Join("..", ".."), &out, &errOut); code != 0 {
		t.Fatalf("docscheck found problems (exit %d):\n%s", code, errOut.String())
	}
}

// TestDetectsMissingAndMalformedPackageComments builds a synthetic tree with
// a comment-less package, a package with two doc comments, and a package
// whose comment does not follow the "Package <name>" form — all three must
// be findings.
func TestDetectsMissingAndMalformedPackageComments(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/bare/bare.go", "package bare\n")
	write("internal/twice/a.go", "// Package twice does things.\npackage twice\n")
	write("internal/twice/b.go", "// Another preamble.\npackage twice\n")
	write("internal/odd/odd.go", "// odd helpers live here.\npackage odd\n")
	write("internal/good/good.go", "// Package good is documented.\npackage good\n")

	var out, errOut strings.Builder
	if code := run(root, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, want := range []string{
		"internal/bare: no package comment",
		"internal/twice: 2 package doc comments",
		`internal/odd: package comment in odd.go does not begin "Package odd "`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("findings missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "internal/good") {
		t.Errorf("clean package flagged:\n%s", got)
	}
}

// TestDetectsBrokenMarkdownLinks: a relative link at a missing file is a
// finding; external, anchor, and fragment-carrying links that resolve are
// not.
func TestDetectsBrokenMarkdownLinks(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal"), 0o755); err != nil {
		t.Fatal(err)
	}
	md := strings.Join([]string{
		"[ok](real.md)",
		"[ok-anchor](real.md#section)",
		"[self](#here)",
		"[web](https://example.com/x)",
		"[broken](missing.md)",
	}, "\n")
	if err := os.WriteFile(filepath.Join(root, "doc.md"), []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "real.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(root, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	if !strings.Contains(got, `doc.md:5: broken link "missing.md"`) {
		t.Errorf("broken link not reported:\n%s", got)
	}
	if strings.Contains(got, "real.md#section") || strings.Contains(got, "example.com") {
		t.Errorf("false positives:\n%s", got)
	}
}

// TestDetectsUndocumentedScenarioKinds: docs/SCENARIOS.md must carry one
// heading per codec-accepted event kind — a missing heading and a missing
// document are both findings, and a fully-documented file is clean.
func TestDetectsUndocumentedScenarioKinds(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal"), 0o755); err != nil {
		t.Fatal(err)
	}

	// No document at all: one finding naming the reference doc.
	got := strings.Join(checkScenarioKindDocs(root), "\n")
	if !strings.Contains(got, "docs/SCENARIOS.md: missing scenario schema reference") {
		t.Errorf("missing document not reported:\n%s", got)
	}

	// All kinds but one documented: exactly the gap is reported.
	kinds := scenario.KindNames()
	var doc strings.Builder
	doc.WriteString("# Scenario file reference\n")
	for _, k := range kinds[1:] {
		doc.WriteString("### `" + k + "`\n")
	}
	if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "docs", "SCENARIOS.md")
	if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := checkScenarioKindDocs(root)
	if len(findings) != 1 || !strings.Contains(findings[0], `event kind "`+kinds[0]+`" has no heading`) {
		t.Errorf("want exactly the %q gap, got:\n%s", kinds[0], strings.Join(findings, "\n"))
	}

	// The gap closed (heading marker depth and backticks must not matter).
	full := doc.String() + "## " + kinds[0] + "\n"
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	if findings := checkScenarioKindDocs(root); len(findings) != 0 {
		t.Errorf("documented kinds flagged:\n%s", strings.Join(findings, "\n"))
	}
}

// TestDetectsUndocumentedLintAnalyzers: docs/LINT.md must carry one heading
// per registered agavelint analyzer — a missing heading and a missing
// document are both findings, and a fully-documented file is clean.
func TestDetectsUndocumentedLintAnalyzers(t *testing.T) {
	root := t.TempDir()

	// No document at all: one finding naming the reference doc.
	got := strings.Join(checkLintAnalyzerDocs(root), "\n")
	if !strings.Contains(got, "docs/LINT.md: missing linter reference") {
		t.Errorf("missing document not reported:\n%s", got)
	}

	// All analyzers but one documented: exactly the gap is reported.
	names := analyzers.Names()
	var doc strings.Builder
	doc.WriteString("# agavelint reference\n")
	for _, n := range names[1:] {
		doc.WriteString("### `" + n + "`\n")
	}
	if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "docs", "LINT.md")
	if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := checkLintAnalyzerDocs(root)
	if len(findings) != 1 || !strings.Contains(findings[0], `analyzer "`+names[0]+`" has no heading`) {
		t.Errorf("want exactly the %q gap, got:\n%s", names[0], strings.Join(findings, "\n"))
	}

	// The gap closed (heading marker depth and backticks must not matter).
	full := doc.String() + "## " + names[0] + "\n"
	if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	if findings := checkLintAnalyzerDocs(root); len(findings) != 0 {
		t.Errorf("documented analyzers flagged:\n%s", strings.Join(findings, "\n"))
	}
}

// TestDetectsUndocumentedFleetWireFields: every json struct tag in
// internal/fleet must appear backticked in docs/FLEET.md — a missing token
// and a missing document are both findings, a documented tree is clean, and
// a tree without internal/fleet is clean (the gate follows the package).
func TestDetectsUndocumentedFleetWireFields(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// No internal/fleet: clean, not a finding or an error.
	findings, err := checkFleetWireDocs(root)
	if err != nil || len(findings) != 0 {
		t.Fatalf("fleet-less tree: findings=%v err=%v", findings, err)
	}

	src := `package fleet

type Line struct {
	Index   int     ` + "`json:\"index\"`" + `
	Digest  string  ` + "`json:\"digest,omitempty\"`" + `
	Skipped string  ` + "`json:\"-\"`" + `
	NoTag   string
}
`
	write("internal/fleet/fleet.go", src)
	// Tags in _test.go files are out of scope.
	write("internal/fleet/fleet_test.go", `package fleet

type testOnly struct {
	X int `+"`json:\"test_only_field\"`"+`
}
`)

	// No document at all: one finding naming the reference doc.
	findings, err = checkFleetWireDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "docs/FLEET.md: missing fleet wire-format reference") {
		t.Fatalf("missing document not reported:\n%s", strings.Join(findings, "\n"))
	}

	// One field documented, one not: exactly the gap is reported, and the
	// json:"-" field and the test-file tag are never demanded.
	write("docs/FLEET.md", "# Fleet\n\nLines carry `index`.\n")
	findings, err = checkFleetWireDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], `wire-format field "digest" (internal/fleet) is undocumented`) {
		t.Fatalf("want exactly the digest gap, got:\n%s", strings.Join(findings, "\n"))
	}

	// The gap closed: the ",omitempty" option must not leak into the token.
	write("docs/FLEET.md", "# Fleet\n\nLines carry `index` and `digest`.\n")
	findings, err = checkFleetWireDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("documented fields flagged:\n%s", strings.Join(findings, "\n"))
	}
}

// TestDetectsLayerMapDrift: docs/ARCHITECTURE.md must carry exactly one
// "### `internal/<pkg>`" heading per package under internal/ — a missing
// document, a package without a heading, a duplicated heading and a heading
// for a package that does not exist are all findings, and a matching map is
// clean.
func TestDetectsLayerMapDrift(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/alpha/alpha.go", "// Package alpha is documented.\npackage alpha\n")
	write("internal/beta/beta.go", "// Package beta is documented.\npackage beta\n")
	check := func() string {
		t.Helper()
		findings, err := checkLayerMapDocs(root)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(findings, "\n")
	}

	// No document at all: one finding naming the layer map.
	if got := check(); !strings.Contains(got, "docs/ARCHITECTURE.md: missing layer map") {
		t.Errorf("missing document not reported:\n%s", got)
	}

	// A package without a heading: exactly that gap is reported.
	write("docs/ARCHITECTURE.md", "# Layers\n\n### `internal/alpha` — first\n")
	findings, err := checkLayerMapDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "package internal/beta has no \"### `internal/beta`\" heading") {
		t.Errorf("want exactly the beta gap, got:\n%s", strings.Join(findings, "\n"))
	}

	// A stale heading for a deleted package, with its line, and a
	// duplicated heading.
	write("docs/ARCHITECTURE.md", "# Layers\n\n### `internal/alpha` — first\n### `internal/beta` — second\n"+
		"### `internal/gone` — deleted\n### `internal/beta` — again\n")
	got := check()
	for _, want := range []string{
		"docs/ARCHITECTURE.md:5: heading for internal/gone, which is not a package under internal/",
		"package internal/beta has 2 headings",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("findings missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "internal/alpha") {
		t.Errorf("mapped package flagged:\n%s", got)
	}

	// The map matches: clean. Only "### `internal/...`" headings count, so
	// prose and other heading levels naming a package are ignored.
	write("docs/ARCHITECTURE.md", "# Layers\n\n### `internal/alpha` — first\n### `internal/beta` — second\n"+
		"## `internal/gone` is not a section\nSee `internal/gone`.\n")
	if got := check(); got != "" {
		t.Errorf("matching layer map flagged:\n%s", got)
	}
}
