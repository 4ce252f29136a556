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
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
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

	// Facts is the module-wide knowledge collected before any analyzer
	// runs. It is shared by every pass of a driver invocation and is never
	// nil when the driver uses lint.Run / lint.RunWithFacts.
	Facts *Facts

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

// Facts is the cross-package phase of the suite: a module-wide index built
// by the driver over *all* loaded packages before any analyzer runs on any
// single one. It plays the role of x/tools analysis facts, flattened into
// one explicit structure because the whole module loads in one process.
// Positions are only meaningful against the driver's shared FileSet.
type Facts struct {
	// Funcs maps a function's fully qualified name (types.Func.FullName,
	// e.g. "(*tokentm/stm.Tx).Store") to its collected facts.
	Funcs map[string]*FuncFact
}

// FuncFact is the per-function slice of the module-wide index.
type FuncFact struct {
	// Name is the display name ("Recv.Name" or "Name").
	Name string
	// Pos is the function declaration's position.
	Pos token.Pos

	// Annotations parsed from the doc comment.
	AllocFree bool // //tokentm:allocfree — body must not allocate

	// AllocSites are the allocating constructs in the body, judged by the
	// same conservative rules the allocfree analyzer applies to annotated
	// functions (panic arguments exempt, caller-rooted appends allowed).
	AllocSites []AllocSite
	// Callees are the statically resolvable same-module calls in the body
	// (panic arguments excluded), for interprocedural closure walks.
	Callees []Callee
}

// AllocSite is one allocating construct inside a function body.
type AllocSite struct {
	Pos  token.Pos
	What string
}

// Callee is one resolved same-module call site.
type Callee struct {
	Pos token.Pos
	// Name is the callee's types.Func.FullName, the key into Facts.Funcs.
	Name string
}
