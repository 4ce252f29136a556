package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"tokentm/internal/lint/analysis"
)

// AtomicField enforces two atomics-hygiene contracts on the host-concurrent
// code (and anything else in the module):
//
//  1. No function-style sync/atomic: atomic.AddUint64(&x.f, ...) leaves x.f
//     a plain uint64 that any other line can read or write without the
//     atomic API — the known `go vet` gap. Module code uses the typed
//     atomics (atomic.Uint64, atomic.Pointer[T], ...), whose fields the
//     compiler refuses to access plainly, so every package-level
//     sync/atomic call is reported.
//
//  2. CAS retry-loop hygiene, the static form of the PR-6 upgrade-herd
//     lesson: a loop that retries a CompareAndSwap must (a) re-load the
//     expected value inside the loop body — an expected value computed
//     before the loop can never match after the first failure, so the loop
//     spins forever — and (b) if the loop is unbounded (no condition),
//     contain a backoff or doom call: runtime.Gosched, time.Sleep, a
//     function annotated //tokentm:backoff, or panic on a broken
//     invariant. Bounded spins (for i := 0; i < lim; i++) are exempt from
//     (b); constant expected values (state-machine flips like CAS(0, 1))
//     are exempt from (a).
var AtomicField = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "no function-style sync/atomic calls, and CompareAndSwap retry-loop hygiene",
	Run:  runAtomicField,
}

func runAtomicField(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAtomicFuncCall(pass.TypesInfo, call) {
			pass.Reportf(call.Pos(), "function-style sync/atomic call %s; use a typed atomic (atomic.Uint64, atomic.Pointer[T], ...) so plain access to the word is a compile error", types.ExprString(call.Fun))
		}
		return true
	})
	for _, fd := range enclosingFuncs(pass.Files) {
		checkCASLoops(pass, fd)
	}
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

// --- rule 2: CAS retry-loop hygiene ----------------------------------------

func checkCASLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		checkOneCASLoop(pass, loop)
		return true
	})
}

// checkOneCASLoop applies both hygiene rules to the CAS calls that belong
// directly to loop (not to a nested loop or closure, which get their own
// analysis).
func checkOneCASLoop(pass *analysis.Pass, loop *ast.ForStmt) {
	casCalls := directCASCalls(pass.TypesInfo, loop)
	if len(casCalls) == 0 {
		return
	}

	assigned := loopAssignedObjects(pass.TypesInfo, loop)
	for _, call := range casCalls {
		expected := casExpectedArg(pass.TypesInfo, call)
		if expected == nil {
			continue
		}
		vars := varIdents(pass.TypesInfo, expected)
		if len(vars) == 0 {
			continue // constant expected value: a state flip, nothing to re-load
		}
		reloaded := false
		for _, obj := range vars {
			if assigned[obj] {
				reloaded = true
				break
			}
		}
		if !reloaded {
			pass.Reportf(call.Pos(), "CompareAndSwap retry loop never re-loads its expected value %s inside the loop; a stale expected value can never match, so the loop spins forever", types.ExprString(expected))
		}
	}

	if loop.Cond == nil && !hasBackoffOrDoom(pass, loop) {
		pass.Reportf(loop.Pos(), "unbounded CompareAndSwap retry loop without backoff or doom; call runtime.Gosched, a //tokentm:backoff function, or panic on a broken invariant")
	}
}

// directCASCalls returns the CompareAndSwap calls in loop's condition, body
// and post statement, excluding those inside nested for loops or func
// literals.
func directCASCalls(info *types.Info, loop *ast.ForStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	scan := func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ForStmt:
				if x != loop {
					return false
				}
			case *ast.RangeStmt, *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if isCASCall(info, x) {
					out = append(out, x)
				}
			}
			return true
		})
	}
	if loop.Cond != nil {
		scan(loop.Cond)
	}
	scan(loop.Body)
	scan(loop.Post)
	return out
}

// isCASCall reports whether call is a sync/atomic CompareAndSwap — either
// the function style (atomic.CompareAndSwapUint64) or a typed-atomic method
// (atomic.Uint64's CompareAndSwap).
func isCASCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// casExpectedArg returns the expected-value argument of a CAS call: the
// second argument of the function style (addr, old, new), the first of the
// method style (old, new).
func casExpectedArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	if isAtomicFuncCall(info, call) {
		if len(call.Args) >= 2 {
			return call.Args[1]
		}
		return nil
	}
	if len(call.Args) >= 1 {
		return call.Args[0]
	}
	return nil
}

// varIdents returns the variable objects referenced by expr (constants and
// types excluded).
func varIdents(info *types.Info, expr ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			out = append(out, v)
		}
		return true
	})
	return out
}

// loopAssignedObjects returns every object assigned in the loop's body or
// post statement — the per-iteration scope. The init statement is excluded
// deliberately: `for old := w.Load(); ; { ... CAS(old, ...) }` loads old
// exactly once and is precisely the stale-expected-value bug.
func loopAssignedObjects(info *types.Info, loop *ast.ForStmt) map[types.Object]bool {
	assigned := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				assigned[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				assigned[obj] = true
			}
		}
	}
	scan := func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					record(lhs)
				}
			case *ast.IncDecStmt:
				record(s.X)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					record(id)
				}
			case *ast.RangeStmt:
				record(s.Key)
				record(s.Value)
			}
			return true
		})
	}
	scan(loop.Body)
	scan(loop.Post)
	return assigned
}

// hasBackoffOrDoom reports whether loop's body contains (outside nested
// closures) a recognized backoff — runtime.Gosched, time.Sleep, a
// //tokentm:backoff-annotated module function — or a doom: panic.
func hasBackoffOrDoom(pass *analysis.Pass, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
				found = true
				return false
			}
		}
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "runtime":
				if fn.Name() == "Gosched" {
					found = true
				}
			case "time":
				if fn.Name() == "Sleep" {
					found = true
				}
			default:
				if pass.Facts != nil {
					if fact := pass.Facts.Funcs[funcKey(fn)]; fact != nil && fact.Backoff {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
