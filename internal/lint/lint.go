// Package lint implements the tokentm static-analysis suite: two analyzers
// for the hot-path and protocol-completeness contracts from DESIGN.md that
// no runtime test covers everywhere, reported at the offending source line.
//
//   - allocfree: functions annotated //tokentm:allocfree contain no
//     allocating constructs, and no call chain out of them reaches one in
//     an unannotated same-module callee (conservative AST check plus a
//     fact-based call-graph closure; a dynamic testing.AllocsPerRun table
//     test cross-checks the annotation list).
//   - exhaustive: switches over the protocol enums (MESI states, packed
//     metastate states, access outcomes, ...) in a determinism package
//     cover every constant or carry a default that panics or returns.
//
// The determinism contract itself (sorted map walks, no wall clock, no
// global rand) is checked by go test: the fingerprint and determinism
// tests, the scheduler goldens, and TestDeterminismPackagesImportNoTime.
//
// The driver runs in two phases: CollectFacts indexes every loaded package
// (per-function alloc sites, call edges, annotations), then each analyzer
// runs per package with the shared module-wide analysis.Facts.
//
// A finding is suppressed by a //lint:ignore directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. A directive without a reason is itself a diagnostic,
// and so is a stale directive that suppresses nothing. A //tokentm:
// annotation other than //tokentm:allocfree is a diagnostic too, so a
// misspelled or retired annotation cannot sit unread.
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"tokentm/internal/lint/analysis"
)

// Analyzers returns the full tokentm suite in a fixed order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{AllocFree, Exhaustive}
}

// knownAnalyzer reports whether name names a suite analyzer.
func knownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos        token.Pos
	analyzers  []string // validated analyzer names
	targetLine int      // line the directive applies to
	file       string
	used       bool
}

// Run applies the analyzers to pkg with facts collected from pkg alone,
// filters the findings through the package's //lint:ignore directives, and
// returns the surviving diagnostics (including directive-hygiene
// diagnostics) sorted by position. Single-package facts suffice for
// self-contained packages (the linttest fixtures); the multichecker collects
// facts over every loaded package and calls RunWithFacts instead.
func Run(pkg *Package, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	return RunWithFacts(pkg, analyzers, CollectFacts([]*Package{pkg}))
}

// RunWithFacts is Run with an explicit, typically module-wide, fact index.
func RunWithFacts(pkg *Package, analyzers []*analysis.Analyzer, facts *analysis.Facts) []analysis.Diagnostic {
	var raw []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Facts:     facts,
			Report:    func(d analysis.Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			raw = append(raw, analysis.Diagnostic{
				Pos: pkg.Files[0].Pos(), Analyzer: a.Name, Message: err.Error(),
			})
		}
	}

	dirs, dirDiags := parseDirectives(pkg)
	var out []analysis.Diagnostic
	for _, d := range raw {
		p := pkg.Fset.Position(d.Pos)
		if matchDirective(dirs, p.Filename, p.Line, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, dirDiags...)

	// A directive that names a run analyzer but suppressed nothing is stale.
	run := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		run[a.Name] = true
	}
	for _, dir := range dirs {
		if dir.used {
			continue
		}
		applicable := false
		for _, name := range dir.analyzers {
			if run[name] {
				applicable = true
				break
			}
		}
		if applicable {
			out = append(out, analysis.Diagnostic{
				Pos:      dir.pos,
				Analyzer: "lint",
				Message: "stale //lint:ignore: no " + strings.Join(dir.analyzers, ",") +
					" finding on the target line; delete the directive",
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

// matchDirective marks and reports a directive covering (file, line,
// analyzer), if any.
func matchDirective(dirs []*directive, file string, line int, analyzer string) bool {
	for _, d := range dirs {
		if d.file != file || d.targetLine != line {
			continue
		}
		for _, name := range d.analyzers {
			if name == analyzer {
				d.used = true
				return true
			}
		}
	}
	return false
}

// parseDirectives scans every comment of the package for //lint:ignore
// directives, returning the well-formed ones plus hygiene diagnostics for
// malformed ones (missing analyzer list, unknown analyzer, missing reason)
// and for unknown //tokentm: annotations.
func parseDirectives(pkg *Package) ([]*directive, []analysis.Diagnostic) {
	var dirs []*directive
	var diags []analysis.Diagnostic
	for _, f := range pkg.Files {
		for _, grp := range f.Comments {
			for _, c := range grp.List {
				if name, ok := strings.CutPrefix(c.Text, "//tokentm:"); ok {
					name, _, _ = strings.Cut(name, " ")
					if d := "//tokentm:" + name; d != AllocFreeDirective {
						diags = append(diags, analysis.Diagnostic{
							Pos: c.Slash, Analyzer: "lint",
							Message: "unknown annotation " + d,
						})
					}
					continue
				}
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				fields := strings.Fields(text)
				if len(fields) == 0 {
					diags = append(diags, analysis.Diagnostic{
						Pos: c.Slash, Analyzer: "lint",
						Message: "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				bad := false
				for _, name := range names {
					if !knownAnalyzer(name) {
						diags = append(diags, analysis.Diagnostic{
							Pos: c.Slash, Analyzer: "lint",
							Message: "//lint:ignore names unknown analyzer " + name,
						})
						bad = true
					}
				}
				if bad {
					continue
				}
				if len(fields) < 2 {
					diags = append(diags, analysis.Diagnostic{
						Pos: c.Slash, Analyzer: "lint",
						Message: "//lint:ignore " + fields[0] + " is missing a reason",
					})
					continue
				}
				target := pos.Line
				if standsAlone(pkg.Src[pos.Filename], pos.Offset) {
					target = pos.Line + 1
				}
				dirs = append(dirs, &directive{
					pos:        c.Slash,
					analyzers:  names,
					targetLine: target,
					file:       pos.Filename,
				})
			}
		}
	}
	return dirs, diags
}

// standsAlone reports whether only whitespace precedes the comment starting
// at offset on its line; such a directive targets the following line.
func standsAlone(src []byte, offset int) bool {
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case ' ', '\t':
			continue
		case '\n':
			return true
		default:
			return false
		}
	}
	return true
}

// enclosingFuncs pairs every function body in the package with its
// declaration, for analyzers that reason per function.
func enclosingFuncs(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
