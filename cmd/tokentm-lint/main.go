// Command tokentm-lint is the multichecker for the tokentm static-analysis
// suite (internal/lint): it loads the requested packages from source,
// collects module-wide facts, and runs the allocfree and exhaustive
// analyzers, honoring //lint:ignore directives.
// `make lint` runs it together with go vet over the whole module.
//
// Usage:
//
//	tokentm-lint [-analyzers name,name] [packages]
//
// Packages default to ./... and accept any `go list` pattern. The process
// working directory must be inside the module (imports resolve from
// source). Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"tokentm/internal/lint"
	"tokentm/internal/lint/analysis"
)

type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

func main() {
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tokentm-lint [-analyzers name,name] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-lint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := listPackages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-lint:", err)
		os.Exit(2)
	}

	// Phase 1: load everything, so fact collection sees the whole module
	// (the allocfree call graph is cross-package).
	loader := lint.NewLoader()
	var loaded []*lint.Package
	for _, lp := range pkgs {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := loader.Load(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tokentm-lint:", err)
			os.Exit(2)
		}
		loaded = append(loaded, pkg)
	}
	facts := lint.CollectFacts(loaded)

	// Phase 2: run the analyzers package by package against the shared
	// fact index.
	findings := 0
	for _, pkg := range loaded {
		for _, d := range lint.RunWithFacts(pkg, analyzers, facts) {
			pos := loader.Fset().Position(d.Pos)
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "tokentm-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// listPackages resolves the patterns through `go list -json`.
func listPackages(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(out)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	return pkgs, nil
}

func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
