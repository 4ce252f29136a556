package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"tokentm/internal/lint/analysis"
)

// MapOrder flags for-range loops over map types in simulation and
// ordered-output packages. Go randomizes map iteration order per run, so any
// map-ordered loop that issues simulated memory accesses — or builds a list
// whose order later drives them, or writes output — breaks the determinism
// contract: one (workload, variant, scale, seed) tuple must name exactly one
// execution. This is exactly the bug class PR 2 chased dynamically (token
// release and enemy enumeration iterating Go maps).
//
// A loop is exempt when its body provably cannot observe order:
//
//   - pure order-insensitive aggregation: each statement is a counter
//     increment/decrement or a commutative compound assignment
//     (+=, -=, |=, &=, ^=),
//   - delete(m, k) of the ranged map's own key,
//   - collecting the range variables into a slice that is sorted later in
//     the same function (the canonical fix pattern),
//
// or when the line carries //lint:ignore maporder <reason>.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "forbid map-iteration-order-dependent loops in simulation packages",
	Run:  runMapOrder,
}

func runMapOrder(pass *analysis.Pass) error {
	if s := ScopeOf(pass.Pkg.Path()); s != ScopeSim && s != ScopeOrderedOutput {
		return nil
	}
	for _, fd := range enclosingFuncs(pass.Files) {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if mapRangeBenign(pass, fd, rs) {
				return true
			}
			pass.Reportf(rs.For,
				"for-range over map %s: iteration order is randomized; walk an ordered source (sorted keys, a kept-sorted slice) or justify with //lint:ignore maporder <reason>",
				types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// mapRangeBenign reports whether every statement of the range body is
// order-insensitive.
func mapRangeBenign(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	for _, stmt := range rs.Body.List {
		if !mapStmtBenign(pass, fd, rs, stmt) {
			return false
		}
	}
	return true
}

func mapStmtBenign(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
			token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulation: the final value is independent of
			// visit order (provided the right-hand side is, which nested
			// map ranges would themselves get flagged for).
			return true
		case token.ASSIGN, token.DEFINE:
			return appendThenSorted(pass, fd, rs, s)
		}
		return false
	case *ast.ExprStmt:
		// delete(m, k) of the ranged map's own key: the spec guarantees
		// entries not yet reached are simply skipped, and deleting all
		// visited keys is order-insensitive.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "delete" {
			return false
		}
		if types.ExprString(call.Args[0]) != types.ExprString(rs.X) {
			return false
		}
		key, ok := rs.Key.(*ast.Ident)
		if !ok {
			return false
		}
		arg, ok := call.Args[1].(*ast.Ident)
		return ok && arg.Name == key.Name
	}
	return false
}

// appendThenSorted recognizes the collect-then-sort idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)   // or sort.Ints/Strings/Sort, slices.Sort*
//
// The assignment is benign when it appends a range variable to a plain
// identifier that is passed to a sort call after the loop in the same
// function.
func appendThenSorted(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	dst, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) < 2 {
		return false
	}
	if base, ok := call.Args[0].(*ast.Ident); !ok || base.Name != dst.Name {
		return false
	}
	// Every appended element must be a range variable (key or value).
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || !isRangeVar(rs, id.Name) {
			return false
		}
	}
	return sortedAfter(pass, fd, rs.End(), dst.Name)
}

func isRangeVar(rs *ast.RangeStmt, name string) bool {
	if k, ok := rs.Key.(*ast.Ident); ok && k.Name == name {
		return true
	}
	if v, ok := rs.Value.(*ast.Ident); ok && v.Name == name {
		return true
	}
	return false
}

// sortedAfter reports whether fd's body contains, after pos, a call to a
// sort/slices sorting function whose first argument is the identifier name.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, pos token.Pos, name string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "Sort", "SortFunc", "SortStableFunc",
			"Stable", "Ints", "Strings", "Float64s":
		default:
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}
