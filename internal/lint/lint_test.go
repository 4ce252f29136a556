package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExhaustiveSwitches runs the enum-switch check over the non-test files
// of every determinism package, type-checked against the export data that
// `go list -export` builds for their imports.
func TestExhaustiveSwitches(t *testing.T) {
	export := map[string]string{} // import path -> export data file
	var pkgs [][]string           // import path, dir, Go files...
	for _, line := range goList(t, "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}", "-export", "-deps") {
		f := strings.Split(line, "\t")
		export[f[0]] = f[1]
		if ScopeOf(f[0]) == ScopeDeterminism {
			pkgs = append(pkgs, append(f[:1], f[2:]...))
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("go list reported no determinism packages")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p[2:] {
			f, err := parser.ParseFile(fset, filepath.Join(p[1], name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p[0], fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p[0], err)
		}
		for _, f := range exhaustiveFindings(fset, pkg, files, info) {
			t.Error(f)
		}
	}
	t.Logf("checked %d determinism packages", len(pkgs))
}

// The fixtures live under testdata/src/tokentm/... and are checked as the
// import path below testdata/src, so ScopeOf keys them like the packages
// they mimic.

func TestExhaustive(t *testing.T) {
	checkFixture(t, "testdata/src/tokentm/internal/sim/exhaustive")
}

// TestExhaustiveOrderedOutput covers the byte-stable output packages: the
// trace decorator switches over the same protocol enums as the simulator.
func TestExhaustiveOrderedOutput(t *testing.T) {
	checkFixture(t, "testdata/src/tokentm/internal/trace/exhaustive")
}

// TestHostSideOutOfScope checks an exempt stm-side fixture holding a partial
// enum switch, and expects zero findings: the check is scope-gated.
func TestHostSideOutOfScope(t *testing.T) {
	checkFixture(t, "testdata/src/tokentm/stm/hostside")
}

var wantRe = regexp.MustCompile("^//\\s*want\\s+`([^`]*)`$")

// checkFixture type-checks the fixture package in dir, which imports
// nothing, and requires every finding to match the `// want` pattern on its
// line, and every pattern to match exactly one finding.
func checkFixture(t *testing.T, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	want := map[string]*regexp.Regexp{} // "file:line" -> pattern
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, g := range f.Comments {
			for _, c := range g.List {
				if m := wantRe.FindStringSubmatch(c.Text); m != nil {
					pos := fset.Position(c.Slash)
					want[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = regexp.MustCompile(m[1])
				}
			}
		}
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := new(types.Config).Check(strings.TrimPrefix(dir, "testdata/src/"), fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range exhaustiveFindings(fset, pkg, files, info) {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if re := want[key]; re != nil && re.MatchString(f.String()) {
			delete(want, key)
		} else {
			t.Errorf("unexpected finding %s", f)
		}
	}
	for key, re := range want {
		t.Errorf("%s: no finding matches %q", key, re)
	}
}
