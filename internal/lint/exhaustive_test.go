// Package lint holds the module's source-level contracts as tests; it has
// no non-test code.
//
//   - scope_lists_test.go classifies every package as a determinism package
//     or exempt (TestScopeCoversModule keeps the lists in step with
//     `go list ./...`).
//   - exhaustive_test.go is the enum-switch check: in a determinism package, a
//     switch over a protocol enum (MESI states, packed metastate states,
//     access outcomes, ...) covers every constant or carries a default that
//     panics or returns. TestExhaustiveSwitches runs it over every
//     determinism package, type-checked from the build's export data.
//
// The other contracts are checked by go test as well: the allocation-free
// hot paths by one testing.AllocsPerRun table per package
// (TestAllocFreeAnnotations), whose rows enter every function those paths
// call; the determinism contract (sorted map walks, no wall clock, no global
// rand) by the fingerprint and determinism tests, the scheduler goldens (the
// root package's TestSchedulerGoldens) and TestDeterminismPackagesImportNoTime.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// finding is one violation of the enum-switch rule.
type finding struct {
	Pos     token.Position
	Message string
}

// exhaustiveFindings checks that switch statements over the protocol enums —
// named integer types with two or more package-level constants, such as the
// MESI CohState, the packed metastate state field, access Outcomes and loss
// reasons — either cover every declared constant or carry a default clause
// that panics or returns. This encodes the paper's Tables 3a/3b requirement
// that the transition tables define an entry for *every* summary state: a
// silently-ignored enum value is a protocol hole, not a don't-care. Only
// determinism packages are checked; info needs its Types map.
func exhaustiveFindings(fset *token.FileSet, pkg *types.Package, files []*ast.File, info *types.Info) []finding {
	if ScopeOf(pkg.Path()) != ScopeDeterminism {
		return nil
	}
	var out []finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, finding{fset.Position(pos), fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
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
					ctv, ok := info.Types[e]
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
				report(sw.Switch,
					"switch over %s misses %s: cover every constant or add a default that panics/returns an error (Tables 3a/3b: every summary state has a defined transition)",
					describeType(named), strings.Join(missing, ", "))
				return true
			}
			if !failsLoudly(defaultClause) {
				report(defaultClause.Pos(),
					"default clause of non-exhaustive switch over %s must panic or return, so an unhandled %s cannot be silently ignored",
					describeType(named), describeType(named))
			}
			return true
		})
	}
	return out
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

func describeType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// String renders f as "file:line:col: exhaustive: message".
func (f finding) String() string {
	return fmt.Sprintf("%s: exhaustive: %s", f.Pos, f.Message)
}
