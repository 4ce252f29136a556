// Package lint implements the tokentm static-analysis suite: one analyzer
// for a protocol-completeness contract from DESIGN.md that no runtime test
// covers everywhere, reported at the offending source line.
//
//   - exhaustive: switches over the protocol enums (MESI states, packed
//     metastate states, access outcomes, ...) in a determinism package
//     cover every constant or carry a default that panics or returns.
//
// The other contracts are checked by go test: the allocation-free hot paths
// by one testing.AllocsPerRun table per package (TestAllocFreeAnnotations),
// whose rows enter every function those paths call; the determinism contract
// (sorted map walks, no wall clock, no global rand) by the fingerprint and
// determinism tests, the scheduler goldens, and
// TestDeterminismPackagesImportNoTime.
package lint

import (
	"sort"

	"tokentm/internal/lint/analysis"
)

// Analyzers returns the full tokentm suite in a fixed order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Exhaustive}
}

// Run applies the analyzers to pkg and returns their diagnostics sorted by
// position.
func Run(pkg *Package, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			out = append(out, analysis.Diagnostic{
				Pos: pkg.Files[0].Pos(), Analyzer: a.Name, Message: err.Error(),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out
}
