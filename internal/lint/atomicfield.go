package lint

import (
	"go/ast"
	"go/types"

	"tokentm/internal/lint/analysis"
)

// AtomicField bans function-style sync/atomic across the module:
// atomic.AddUint64(&x.f, ...) leaves x.f a plain uint64 that any other line
// can read or write without the atomic API — the known `go vet` gap. Module
// code uses the typed atomics (atomic.Uint64, atomic.Pointer[T], ...), whose
// fields the compiler refuses to access plainly, so every package-level
// sync/atomic call is reported.
//
// That wait loops yield to a descheduled holder is a runtime property, and
// a runtime test guards it (TestWaitsYield in stm, TestTL2WaitsYield in
// stm/kvstore), not this analyzer.
var AtomicField = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "no function-style sync/atomic calls",
	Run:  runAtomicField,
}

func runAtomicField(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAtomicFuncCall(pass.TypesInfo, call) {
			pass.Reportf(call.Pos(), "function-style sync/atomic call %s; use a typed atomic (atomic.Uint64, atomic.Pointer[T], ...) so plain access to the word is a compile error", types.ExprString(call.Fun))
		}
		return true
	})
	return nil
}

// isAtomicFuncCall reports whether call invokes a function (not a method) of
// package sync/atomic, e.g. atomic.AddUint64.
func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[pkgID].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "sync/atomic"
}
