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

func modulePackages(t *testing.T) []string {
	t.Helper()
	cmd := exec.Command("go", "list", "./...")
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
	pkgs := modulePackages(t)

	for _, pkg := range pkgs {
		if ScopeOf(pkg) == ScopeUnknown {
			t.Errorf("package %s is not classified; add it to a scope list in internal/lint/scope.go", pkg)
		}
	}

	lists := []struct {
		name string
		list []string
	}{
		{"simPackages", simPackages},
		{"orderedOutputPackages", orderedOutputPackages},
		{"hostSidePackages", hostSidePackages},
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
		{"tokentm/stm/atomicfield", ScopeHostSide},
		{"fmt", ScopeUnknown},
	} {
		if got := ScopeOf(c.path); got != c.want {
			t.Errorf("ScopeOf(%q) = %s, want %s", c.path, got, c.want)
		}
	}
}
