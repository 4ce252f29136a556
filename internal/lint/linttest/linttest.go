// Package linttest is a dependency-free analogue of
// golang.org/x/tools/go/analysis/analysistest: it runs analyzers over a
// testdata package and checks the reported diagnostics against expectations
// written in the fixture sources.
//
// An expectation is a comment of the form
//
//	// want `regexp` `regexp` ...
//
// matching diagnostics on its own line, rendered as "analyzer: message".
// Every diagnostic must match an expectation and every expectation must be
// matched exactly once.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"tokentm/internal/lint"
	"tokentm/internal/lint/analysis"
)

// sharedLoader is reused across Run calls: the source importer re-typechecks
// stdlib imports per Loader, so sharing one amortizes that cost over the
// whole fixture suite. Tests run sequentially within a package, so plain
// lazy init is enough; the Once guards parallel use.
var (
	loaderOnce   sync.Once
	sharedLoader *lint.Loader
)

func loader() *lint.Loader {
	loaderOnce.Do(func() { sharedLoader = lint.NewLoader() })
	return sharedLoader
}

var wantRe = regexp.MustCompile(`^//\s*want\s+(.+)$`)
var patRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the testdata package rooted at dir — the import path is the
// path below "testdata/src/" — runs the analyzers as the real driver does,
// and reports every mismatch between diagnostics and want-expectations as a
// test error.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	importPath := importPathFor(t, dir)
	pkg, err := loader().LoadDir(importPath, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}

	expects := collectExpectations(t, pkg)
	for _, d := range lint.Run(pkg, analyzers) {
		pos := pkg.Fset.Position(d.Pos)
		got := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		if !claim(expects, pos.Filename, pos.Line, got) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, got)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(e.file), e.line, e.pattern)
		}
	}
}

func importPathFor(t *testing.T, dir string) string {
	t.Helper()
	slashed := filepath.ToSlash(dir)
	const marker = "testdata/src/"
	i := strings.Index(slashed, marker)
	if i < 0 {
		t.Fatalf("testdata dir %q is not under testdata/src/", dir)
	}
	return slashed[i+len(marker):]
}

func collectExpectations(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, grp := range f.Comments {
			for _, c := range grp.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				pats := patRe.FindAllStringSubmatch(m[1], -1)
				if len(pats) == 0 {
					t.Fatalf("%s:%d: want comment without a `regexp` pattern", pos.Filename, pos.Line)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, p[1], err)
					}
					out = append(out, &expectation{
						file:    pos.Filename,
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return out
}

func claim(expects []*expectation, file string, line int, got string) bool {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.pattern.MatchString(got) {
			e.matched = true
			return true
		}
	}
	return false
}
