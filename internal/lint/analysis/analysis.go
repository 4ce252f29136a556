// Package analysis is a minimal, dependency-free skeleton of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one type-checked
// package through a Pass and reports position-anchored Diagnostics. The
// build environment vendors no external modules, so this package provides
// just the surface the tokentm analyzers need; an Analyzer written against
// it ports to the upstream framework by swapping the import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the check to one package and reports findings via
	// pass.Report or pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Inspect walks every file of the pass in depth-first order, calling fn for
// each node; fn returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
