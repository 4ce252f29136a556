package lint

// TestScopeCoversModule pins the scope lists against the real module: every
// package `go list ./...` reports must classify into exactly one scope, and
// every list entry must still match at least one real package. A new
// package cannot silently dodge the contracts, and a renamed package cannot
// leave a stale entry behind.

import (
	"os/exec"
	"strings"
	"testing"
)

// goList runs `go list -f format ./...` from the module root and returns one
// line per package.
func goList(t *testing.T, format string) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "-f", format, "./...")
	cmd.Dir = "../.." // module root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	var pkgs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			pkgs = append(pkgs, line)
		}
	}
	if len(pkgs) < 10 {
		t.Fatalf("go list returned implausibly few packages: %v", pkgs)
	}
	return pkgs
}

func TestScopeCoversModule(t *testing.T) {
	pkgs := goList(t, "{{.ImportPath}}")

	for _, pkg := range pkgs {
		if ScopeOf(pkg) == ScopeUnknown {
			t.Errorf("package %s is not classified; add it to a scope list in internal/lint/scope.go", pkg)
		}
	}

	lists := []struct {
		name string
		list []string
	}{
		{"determinismPackages", determinismPackages},
		{"exemptPackages", exemptPackages},
	}

	// Overlap check: the lists must be mutually exclusive, so ScopeOf's
	// switch order never hides a double classification.
	for _, pkg := range pkgs {
		n := 0
		for _, l := range lists {
			if inList(pkg, l.list) {
				n++
			}
		}
		if n > 1 {
			t.Errorf("package %s matches %d scope lists; scopes must be disjoint", pkg, n)
		}
	}

	// Staleness check: every list entry must cover at least one package.
	for _, l := range lists {
		for _, e := range l.list {
			covered := false
			for _, pkg := range pkgs {
				if inList(pkg, []string{e}) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s entry %q matches no module package; remove or rename it", l.name, e)
			}
		}
	}
}

// TestScopeOf pins ScopeOf on paths `go list ./...` never returns: a lint
// fixture keys like the package it mimics, and a path outside the module is
// in no scope.
func TestScopeOf(t *testing.T) {
	for _, c := range []struct {
		path string
		want Scope
	}{
		{"tokentm/stm/hostside", ScopeExempt},
		{"fmt", ScopeUnknown},
	} {
		if got := ScopeOf(c.path); got != c.want {
			t.Errorf("ScopeOf(%q) = %s, want %s", c.path, got, c.want)
		}
	}
}

// TestSTMHostSideExempt pins the explicit exemption for the stm subsystem:
// stm/... is host-side by charter (wall-clock throughput and latency
// measurement), so every stm package `go list ./...` reports, present or
// future, classifies as exempt.
func TestSTMHostSideExempt(t *testing.T) {
	n := 0
	for _, pkg := range goList(t, "{{.ImportPath}}") {
		if inList(pkg, []string{"stm"}) {
			n++
			if got := ScopeOf(pkg); got != ScopeExempt {
				t.Errorf("ScopeOf(%q) = %s, want %s", pkg, got, ScopeExempt)
			}
		}
	}
	if n == 0 {
		t.Fatal("go list reported no stm packages")
	}
}

// TestDeterminismPackagesImportNoTime keeps the host clock out of the
// determinism packages: a wall-clock budget or timestamp there would make a
// simulated result, or BENCH_explore.json, depend on host speed. Only direct
// non-test imports are checked. Global math/rand in these packages is
// caught by the determinism tests and the scheduler goldens instead.
func TestDeterminismPackagesImportNoTime(t *testing.T) {
	for _, line := range goList(t, `{{.ImportPath}}{{range .Imports}} {{.}}{{end}}`) {
		pkg, imports, _ := strings.Cut(line, " ")
		if ScopeOf(pkg) != ScopeDeterminism {
			continue
		}
		for _, imp := range strings.Fields(imports) {
			if imp == "time" {
				t.Errorf("determinism package %s imports time", pkg)
			}
		}
	}
}
