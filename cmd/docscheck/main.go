// Command docscheck is the documentation gate CI's docs job runs. It
// enforces six invariants that rot silently otherwise:
//
//  1. Every package under internal/ carries exactly one package-level godoc
//     comment, and it begins "Package <name> ", so `go doc ./internal/<pkg>`
//     explains the layer without reading source. More than one doc comment
//     is also an error — Go picks one arbitrarily, which is how a package's
//     real overview ends up shadowed by a file-local preamble.
//  2. Every relative link in the repository's markdown files resolves to an
//     existing file or directory, so the architecture map and README never
//     point at paths a refactor moved.
//  3. Every event kind the scenario codec accepts appears as a heading in
//     docs/SCENARIOS.md, so a new timeline kind cannot ship without its
//     schema reference — the document is held to scenario.KindNames, not
//     the other way around.
//  4. Every analyzer registered in internal/lint/analyzers appears as a
//     heading in docs/LINT.md, so a new lint invariant cannot ship without
//     its reference entry — same contract as the scenario kinds.
//  5. Every wire-format field name internal/fleet declares (json struct
//     tags: result lines, envelopes, trailers, checkpoint records) appears
//     as a backticked token in docs/FLEET.md, so the shard-protocol and
//     checkpoint references can never drift from the structs that define
//     the formats.
//  6. docs/ARCHITECTURE.md carries exactly one "### `internal/<pkg>`"
//     heading per top-level package under internal/, and none for a
//     package that does not exist, so the layer map gains a section with
//     every new layer and loses one with every deleted layer.
//
// A third Go-side invariant used to live here: every markdown file a Go
// comment references must exist. That check is now the docref analyzer in
// cmd/agavelint, where it is suppressible and fixture-tested; docscheck
// keeps the markdown-side gates.
//
// Usage: docscheck [repo-root] (default ".", exits non-zero on any finding).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"agave/internal/lint/analyzers"
	"agave/internal/scenario"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	os.Exit(run(root, os.Stdout, os.Stderr))
}

// run performs all checks and reports every finding (not just the first),
// returning 0 only when the tree is clean.
func run(root string, stdout, stderr io.Writer) int {
	var findings []string
	pkgFindings, err := checkPackageComments(root)
	if err != nil {
		fmt.Fprintln(stderr, "docscheck:", err)
		return 2
	}
	findings = append(findings, pkgFindings...)
	linkFindings, err := checkMarkdownLinks(root)
	if err != nil {
		fmt.Fprintln(stderr, "docscheck:", err)
		return 2
	}
	findings = append(findings, linkFindings...)
	findings = append(findings, checkScenarioKindDocs(root)...)
	findings = append(findings, checkLintAnalyzerDocs(root)...)
	fleetFindings, err := checkFleetWireDocs(root)
	if err != nil {
		fmt.Fprintln(stderr, "docscheck:", err)
		return 2
	}
	findings = append(findings, fleetFindings...)
	layerFindings, err := checkLayerMapDocs(root)
	if err != nil {
		fmt.Fprintln(stderr, "docscheck:", err)
		return 2
	}
	findings = append(findings, layerFindings...)
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(stderr, f)
		}
		fmt.Fprintf(stderr, "docscheck: %d finding(s)\n", len(findings))
		return 1
	}
	fmt.Fprintln(stdout, "docscheck: ok")
	return 0
}

// internalPackages lists the top-level package directories under
// internal/, in name order.
func internalPackages(root string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	var pkgs []string
	for _, e := range entries {
		if e.IsDir() {
			pkgs = append(pkgs, e.Name())
		}
	}
	return pkgs, nil
}

// checkPackageComments verifies each internal/ package has exactly one
// package doc comment of the canonical "Package <name> ..." form.
func checkPackageComments(root string) ([]string, error) {
	pkgs, err := internalPackages(root)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, name := range pkgs {
		dir := filepath.Join(root, "internal", name)
		fset := token.NewFileSet()
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		var docs []string // files carrying a package doc comment
		var docText string
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				return nil, err
			}
			if f.Doc != nil {
				docs = append(docs, filepath.Base(path))
				docText = f.Doc.Text()
			}
		}
		rel := "internal/" + name
		switch {
		case len(docs) == 0:
			findings = append(findings, fmt.Sprintf(
				"%s: no package comment (add a \"Package %s ...\" doc comment)", rel, name))
		case len(docs) > 1:
			findings = append(findings, fmt.Sprintf(
				"%s: %d package doc comments (%s) — keep one, detach the rest with a blank line",
				rel, len(docs), strings.Join(docs, ", ")))
		case !strings.HasPrefix(docText, "Package "+name+" "):
			findings = append(findings, fmt.Sprintf(
				"%s: package comment in %s does not begin \"Package %s \"", rel, docs[0], name))
		}
	}
	return findings, nil
}

// mdLink matches inline markdown links/images; the destination is group 1.
// Reference-style links are rare enough here that inline coverage is the
// useful gate.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// codeSpan matches an inline code span. A bracket-paren pair inside one is
// code, such as a generic Go signature, not a link.
var codeSpan = regexp.MustCompile("`[^`]*`")

// scenarioKindDoc is the scenario-schema reference checkScenarioKindDocs
// holds to the codec, relative to the repo root.
const scenarioKindDoc = "docs/SCENARIOS.md"

// checkScenarioKindDocs verifies that every event kind the scenario codec
// accepts (scenario.KindNames — the exact ParseKind spellings) appears as a
// markdown heading in docs/SCENARIOS.md. The comparison strips heading
// markers and backticks, so "### `faultBinder`" documents the kind
// "faultBinder". A missing reference document is itself a finding, not an
// infrastructure error: deleting the doc must fail the gate the same way
// deleting one heading does.
func checkScenarioKindDocs(root string) []string {
	path := filepath.Join(root, scenarioKindDoc)
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf(
			"%s: missing scenario schema reference (every scenario.ParseKind kind must be documented there)",
			scenarioKindDoc)}
	}
	headings := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		h := strings.TrimSpace(strings.TrimLeft(line, "#"))
		h = strings.Trim(h, "`")
		headings[h] = true
	}
	var findings []string
	for _, kind := range scenario.KindNames() {
		if !headings[kind] {
			findings = append(findings, fmt.Sprintf(
				"%s: event kind %q has no heading (the codec accepts it; document it)",
				scenarioKindDoc, kind))
		}
	}
	return findings
}

// lintAnalyzerDoc is the linter reference checkLintAnalyzerDocs holds to the
// analyzer registry, relative to the repo root.
const lintAnalyzerDoc = "docs/LINT.md"

// checkLintAnalyzerDocs verifies that every analyzer registered in
// internal/lint/analyzers appears as a markdown heading in docs/LINT.md,
// exactly the contract checkScenarioKindDocs enforces for event kinds: the
// document is held to analyzers.Names(), heading markers and backticks
// stripped, and a missing document is itself a finding.
func checkLintAnalyzerDocs(root string) []string {
	path := filepath.Join(root, lintAnalyzerDoc)
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf(
			"%s: missing linter reference (every registered agavelint analyzer must be documented there)",
			lintAnalyzerDoc)}
	}
	headings := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		h := strings.TrimSpace(strings.TrimLeft(line, "#"))
		h = strings.Trim(h, "`")
		headings[h] = true
	}
	var findings []string
	for _, name := range analyzers.Names() {
		if !headings[name] {
			findings = append(findings, fmt.Sprintf(
				"%s: analyzer %q has no heading (it is registered; document it)",
				lintAnalyzerDoc, name))
		}
	}
	return findings
}

// fleetWireDoc is the fleet wire-format reference checkFleetWireDocs holds
// to the internal/fleet struct tags, relative to the repo root.
const fleetWireDoc = "docs/FLEET.md"

// checkFleetWireDocs verifies that every JSON wire-format field name
// internal/fleet declares appears as a backticked token in docs/FLEET.md:
// the shard protocol and checkpoint format are defined by those struct
// tags, so renaming or adding a field without updating the reference fails
// the gate. The document is held to the parsed tags (never the reverse),
// _test.go files are out of scope, and a tree without internal/fleet is
// clean — the gate follows the package, not the other way around.
func checkFleetWireDocs(root string) ([]string, error) {
	dir := filepath.Join(root, "internal", "fleet")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Tag == nil {
					continue
				}
				tag, err := strconv.Unquote(field.Tag.Value)
				if err != nil {
					continue
				}
				name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				if name != "" && name != "-" {
					names[name] = true
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		return nil, nil
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n) //agave:allow maporder collect-then-sort: sorted below before any output
	}
	sort.Strings(sorted)
	data, err := os.ReadFile(filepath.Join(root, fleetWireDoc))
	if err != nil {
		return []string{fmt.Sprintf(
			"%s: missing fleet wire-format reference (every internal/fleet json tag must be documented there)",
			fleetWireDoc)}, nil
	}
	doc := string(data)
	var findings []string
	for _, name := range sorted {
		if !strings.Contains(doc, "`"+name+"`") {
			findings = append(findings, fmt.Sprintf(
				"%s: wire-format field %q (internal/fleet) is undocumented (add it as a backticked token)",
				fleetWireDoc, name))
		}
	}
	return findings, nil
}

// layerMapDoc is the layer map checkLayerMapDocs holds to internal/,
// relative to the repo root.
const layerMapDoc = "docs/ARCHITECTURE.md"

// layerHeading matches a layer-map section heading, "### `internal/<pkg>`
// ...", and captures the path after internal/.
var layerHeading = regexp.MustCompile("^###\\s+`internal/([^`]*)`")

// checkLayerMapDocs verifies that docs/ARCHITECTURE.md carries exactly one
// "### `internal/<pkg>`" heading per top-level package under internal/ and
// none for a path that is not one. The document is held to the directory
// listing, and a missing document is itself a finding.
func checkLayerMapDocs(root string) ([]string, error) {
	pkgs, err := internalPackages(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, layerMapDoc))
	if err != nil {
		return []string{fmt.Sprintf(
			"%s: missing layer map (every internal/ package must have a section there)", layerMapDoc)}, nil
	}
	exists := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		exists[p] = true
	}
	headings := make(map[string]int)
	var findings []string
	for lineNo, line := range strings.Split(string(data), "\n") {
		m := layerHeading.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		headings[m[1]]++
		if !exists[m[1]] {
			findings = append(findings, fmt.Sprintf(
				"%s:%d: heading for internal/%s, which is not a package under internal/ (drop or rename the section)",
				layerMapDoc, lineNo+1, m[1]))
		}
	}
	for _, p := range pkgs {
		switch n := headings[p]; {
		case n == 0:
			findings = append(findings, fmt.Sprintf(
				"%s: package internal/%s has no \"### `internal/%s`\" heading (add its layer-map section)",
				layerMapDoc, p, p))
		case n > 1:
			findings = append(findings, fmt.Sprintf(
				"%s: package internal/%s has %d headings (keep one)", layerMapDoc, p, n))
		}
	}
	return findings, nil
}

// checkMarkdownLinks resolves every relative link destination in the repo's
// markdown files against the filesystem.
func checkMarkdownLinks(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || name == ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(codeSpan.ReplaceAllString(line, ""), -1) {
				dest := m[1]
				if strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") ||
					strings.HasPrefix(dest, "#") {
					continue // external or intra-document
				}
				dest = strings.SplitN(dest, "#", 2)[0] // drop the fragment
				if dest == "" {
					continue
				}
				target := filepath.Join(filepath.Dir(path), dest)
				if _, err := os.Stat(target); err != nil {
					findings = append(findings, fmt.Sprintf(
						"%s:%d: broken link %q", rel, lineNo+1, m[1]))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return findings, nil
}
