package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"tokentm/internal/lint/analysis"
)

// Exhaustive checks that switch statements over the protocol enums — named
// integer types with two or more package-level constants, such as the MESI
// CohState, the packed metastate state field, access Outcomes and loss
// reasons — either cover every declared constant or carry a default clause
// that panics or returns. This encodes the paper's Tables 3a/3b requirement
// that the transition tables define an entry for *every* summary state: a
// silently-ignored enum value is a protocol hole, not a don't-care.
var Exhaustive = &analysis.Analyzer{
	Name: "exhaustive",
	Doc:  "require enum switches to cover every constant or fail loudly in default",
	Run:  runExhaustive,
}

func runExhaustive(pass *analysis.Pass) error {
	if ScopeOf(pass.Pkg.Path()) != ScopeDeterminism {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sw.Tag]
		if !ok {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return true
		}
		basic, ok := named.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			return true
		}
		enums := enumConstants(named)
		if len(enums) < 2 {
			return true
		}

		covered := make(map[string]bool)
		var defaultClause *ast.CaseClause
		for _, stmt := range sw.Body.List {
			cc := stmt.(*ast.CaseClause)
			if cc.List == nil {
				defaultClause = cc
				continue
			}
			for _, e := range cc.List {
				ctv, ok := pass.TypesInfo.Types[e]
				if !ok || ctv.Value == nil {
					continue
				}
				covered[ctv.Value.ExactString()] = true
			}
		}

		var missing []string
		for _, ec := range enums {
			if !covered[ec.Val().ExactString()] {
				missing = append(missing, ec.Name())
			}
		}
		if len(missing) == 0 {
			return true
		}
		if defaultClause == nil {
			sort.Strings(missing)
			pass.Reportf(sw.Switch,
				"switch over %s misses %s: cover every constant or add a default that panics/returns an error (Tables 3a/3b: every summary state has a defined transition)",
				describeType(named), strings.Join(missing, ", "))
			return true
		}
		if !failsLoudly(defaultClause) {
			pass.Reportf(defaultClause.Pos(),
				"default clause of non-exhaustive switch over %s must panic or return, so an unhandled %s cannot be silently ignored",
				describeType(named), describeType(named))
		}
		return true
	})
	return nil
}

// enumConstants returns the package-level constants declared with exactly
// the named type, in the defining package.
func enumConstants(named *types.Named) []*types.Const {
	pkg := named.Obj().Pkg()
	if pkg == nil { // built-in or universe type
		return nil
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			if c.Val().Kind() == constant.Int {
				out = append(out, c)
			}
		}
	}
	return out
}

// failsLoudly reports whether the clause body contains a panic call or a
// return statement (recursively), i.e. an unexpected value cannot fall out
// of the switch unnoticed.
func failsLoudly(cc *ast.CaseClause) bool {
	loud := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if loud {
				return false
			}
			switch x := n.(type) {
			case *ast.ReturnStmt:
				loud = true
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
					loud = true
				}
			}
			return !loud
		})
		if loud {
			return true
		}
	}
	return false
}
