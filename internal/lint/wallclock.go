package lint

import (
	"go/ast"
	"go/types"

	"tokentm/internal/lint/analysis"
)

// WallClock forbids wall-clock reads and the global math/rand source inside
// simulation packages. Simulated time advances only through mem.Cycle
// arithmetic, and the only sanctioned randomness is a seeded
// rand.New(rand.NewSource(seed)) instance owned by the machine — anything
// else lets host timing or process-global state leak into simulated
// observables. Only simulation packages are in scope: host-side packages
// (cmd/, stm/...), exempt and ordered-output ones, and _test.go files are not.
var WallClock = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock and global math/rand use in simulation packages",
	Run:  runWallClock,
}

// forbiddenTimeFuncs are the package time functions that observe or depend
// on the host clock. Types and constants (time.Duration, time.Millisecond)
// remain usable.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRandFuncs are the math/rand package-level functions that build
// seeded generators rather than consulting the global source. Methods on a
// *rand.Rand value are always allowed (they are selector calls on a value,
// not on the package).
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runWallClock(pass *analysis.Pass) error {
	if ScopeOf(pass.Pkg.Path()) != ScopeSim {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
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
		case "time":
			if forbiddenTimeFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"time.%s in a simulation package: simulated time comes from mem.Cycle, never the host clock",
					sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			if allowedRandFuncs[sel.Sel.Name] {
				return true
			}
			// Only function references touch the global source; type
			// references (rand.Rand, rand.Source) are fine.
			if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok {
				if _, isFunc := obj.(*types.Func); !isFunc {
					return true
				}
			}
			pass.Reportf(sel.Pos(),
				"global rand.%s in a simulation package: draw from the machine's seeded rand.New(rand.NewSource(seed)) instance",
				sel.Sel.Name)
		}
		return true
	})
	return nil
}
