// Command agavelint runs the repository's determinism-and-attribution
// analyzer suite (internal/lint/analyzers) over Go packages:
// "agavelint [moduledir]" walks the module, type-checks every non-test
// package against $GOROOT/src, and prints surviving findings. This is the
// gate CI runs; it needs no build cache and no network, and it sees the
// whole module at once, which mutexorder's cross-package lock-order graph
// needs.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
// docs/LINT.md documents each analyzer and the //agave:allow directive.
package main

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"agave/internal/lint"
	"agave/internal/lint/analyzers"
	"agave/internal/lint/load"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// Main is the testable entry point.
func Main(args []string, stdout, stderr io.Writer) int {
	dir := "."
	switch {
	case len(args) == 0:
	case len(args) == 1 && !strings.HasPrefix(args[0], "-"):
		dir = args[0]
	default:
		fmt.Fprintln(stderr, "usage: agavelint [moduledir]")
		return 2
	}
	// findModule walks up from dir, so a mistyped path would otherwise
	// lint whatever module encloses it.
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		fmt.Fprintf(stderr, "agavelint: %s: not a directory\n", dir)
		return 2
	}
	return runStandalone(dir, stdout, stderr)
}

// runStandalone loads every package of the module rooted at or above dir and
// prints findings with paths relative to the working directory.
func runStandalone(dir string, stdout, stderr io.Writer) int {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		fmt.Fprintln(stderr, "agavelint:", err)
		return 2
	}
	fset := token.NewFileSet()
	loader := load.New(load.Config{Fset: fset, ModulePath: modPath, ModuleDir: modDir})
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "agavelint:", err)
		return 2
	}
	findings, err := lint.Run(fset, pkgs, analyzers.All(), analyzers.Names())
	if err != nil {
		fmt.Fprintln(stderr, "agavelint:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				f.Pos.Filename = rel
			}
		}
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findModule walks up from dir to the nearest go.mod and returns the module
// directory and module path.
func findModule(dir string) (modDir, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod at or above %s", abs)
		}
		d = parent
	}
}
