package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tokentm/internal/lint/analysis"
)

// This file is the cross-package phase of the suite. The driver loads every
// requested package, calls CollectFacts over all of them, and only then runs
// the analyzers package by package with the shared analysis.Facts on each
// pass. One analyzer consumes the index: allocfree, whose
// FuncFact.AllocSites and FuncFact.Callees form a call graph over function
// bodies, so a //tokentm:allocfree root is checked against the closure of
// its same-module callees instead of trusting annotation coverage.
//
// When the driver analyzes a subset of the module (a single fixture package
// in linttest, or an explicit package argument), calls into packages outside
// the loaded set have no facts and are trusted silently; `make lint` runs
// over ./... so the real tree always gets the full closure.

// modulePath is the import-path root of the module; calls outside it (the
// standard library) are never followed. Fixture packages under
// testdata/src/tokentm mimic the same prefix on purpose.
const modulePath = "tokentm"

// CollectFacts builds the module-wide index over the given packages. All
// packages must come from one Loader (shared FileSet), which is what both
// the driver and linttest guarantee.
func CollectFacts(pkgs []*Package) *analysis.Facts {
	facts := &analysis.Facts{Funcs: make(map[string]*analysis.FuncFact)}
	for _, pkg := range pkgs {
		collectFuncFacts(pkg, facts)
	}
	return facts
}

// inModule reports whether the package path belongs to this module.
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// hasDirective reports whether the function's doc comment carries the given
// //tokentm: annotation (exact line or annotation followed by a comment).
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive ||
			len(c.Text) > len(directive) && c.Text[:len(directive)+1] == directive+" " {
			return true
		}
	}
	return false
}

// funcKey returns the Facts.Funcs key for a function object.
func funcKey(fn *types.Func) string { return fn.FullName() }

// collectFuncFacts records, for every function declaration in pkg, its
// annotations, its allocating constructs (judged by the allocfree rules in
// the function's own frame), and its statically resolvable same-module
// callees.
func collectFuncFacts(pkg *Package, facts *analysis.Facts) {
	for _, fd := range enclosingFuncs(pkg.Files) {
		obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fact := &analysis.FuncFact{
			Name:      funcDisplayName(fd),
			Pos:       fd.Pos(),
			AllocFree: hasDirective(fd, AllocFreeDirective),
		}
		collect := func(pos token.Pos, format string, args ...any) {
			// The checker's message templates address annotated functions
			// ("... in allocfree function F ..."); here it runs over every
			// function, annotated or not, so neutralize the phrasing.
			what := strings.Replace(fmt.Sprintf(format, args...), "in allocfree function ", "in ", 1)
			fact.AllocSites = append(fact.AllocSites, analysis.AllocSite{
				Pos:  pos,
				What: what,
			})
		}
		c := newAllocChecker(pkg.Info, fd, collect)
		ast.Inspect(fd.Body, c.visit)
		fact.Callees = collectCallees(pkg.Info, fd, c)
		facts.Funcs[funcKey(obj)] = fact
	}
}

// collectCallees resolves the same-module calls of fd's body, skipping calls
// inside panic(...) arguments (terminal paths, exempt by the same rule the
// intra-procedural check applies).
func collectCallees(info *types.Info, fd *ast.FuncDecl, c *allocChecker) []analysis.Callee {
	var out []analysis.Callee
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.inPanic(call.Pos()) {
			return false
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || !inModule(fn.Pkg().Path()) {
			return true
		}
		out = append(out, analysis.Callee{Pos: call.Pos(), Name: funcKey(fn)})
		return true
	})
	return out
}

// calleeFunc resolves a call expression to its static *types.Func target,
// or nil for builtins, func-valued expressions, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
