package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. Imports — both
// standard library and module-local — resolve through go/importer's source
// mode, which requires the process working directory to be inside the
// module (true for `go run ./cmd/tokentm-lint` and for `go test`).
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader with a shared FileSet and import cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadDir loads every non-test .go file in dir as the package importPath.
func (l *Loader) LoadDir(importPath, dir string) (*Package, error) {
	names, err := GoFilesIn(dir)
	if err != nil {
		return nil, err
	}
	return l.Load(importPath, dir, names)
}

// Load parses the named files from dir and type-checks them as one package.
func (l *Loader) Load(importPath, dir string, fileNames []string) (*Package, error) {
	p := &Package{Path: importPath, Fset: l.fset}
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files for %s in %s", importPath, dir)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	p.Pkg = pkg
	return p, nil
}

// GoFilesIn lists the non-test .go files of dir in sorted order.
func GoFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
