package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"tokentm/internal/lint/analysis"
)

// AllocFree checks functions annotated //tokentm:allocfree — the protocol
// hot paths (probe, token-set updates, commit walk, abort unroll, enemy
// enumeration) that PR 2 made allocation-free. The check is a conservative,
// non-transitive AST scan of each annotated body: it flags constructs that
// allocate (or typically allocate) on the steady-state path:
//
//   - make and new
//   - composite literals that escape the statement: &T{...}, and any
//     slice or map literal
//   - append whose destination is not rooted in a parameter, receiver, or
//     named result (scratch-buffer appends reuse caller storage; appends to
//     fresh locals grow fresh backing arrays)
//   - closures (func literals)
//   - fmt.* calls and non-constant string concatenation
//   - explicit conversions to interface types (boxing)
//
// Everything inside a panic(...) argument is exempt: invariant-violation
// messages run once, on a terminal path. The annotation list is
// cross-checked dynamically by TestAllocFreeAnnotations table tests
// asserting testing.AllocsPerRun == 0, so the static and runtime views
// cannot drift: an annotation without a table entry (or vice versa) fails
// the test, and an allocation the AST scan cannot see fails AllocsPerRun.
var AllocFree = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "forbid allocating constructs in //tokentm:allocfree functions",
	Run:  runAllocFree,
}

// AllocFreeDirective is the annotation marking a function's body
// allocation-free. It is the only //tokentm: annotation; any other is a
// lint diagnostic (parseDirectives).
const AllocFreeDirective = "//tokentm:allocfree"

// allocFreeCallWhitelist names same-module callees the interprocedural
// closure walk trusts without descending: leaf calls whose allocating
// construct is known to sit on a terminal path the intra-procedural rules
// cannot see from the caller. Each entry carries its justification.
var allocFreeCallWhitelist = map[string]string{
	"tokentm/internal/metastate.CheckStamp":      "constructs *StampOverflowError only when the 48-bit stamp space is exhausted; every caller panics on a non-nil return, so the steady state never allocates",
	"(*tokentm/internal/cache.Cache).newSet":     "first-touch lazy materialization of one cache set from an arena chunk; amortized to zero once the working set is touched, which the AllocsPerRun tables prove",
	"(*tokentm/internal/coherence.MemSys).entry": "first touch of a block appends its directory entry, allocating a new chunk once per dirChunkEntries blocks; a block already in the directory is one map lookup, which the AllocsPerRun tables prove",
}

func runAllocFree(pass *analysis.Pass) error {
	for _, fd := range enclosingFuncs(pass.Files) {
		if !hasDirective(fd, AllocFreeDirective) {
			continue
		}
		checkAllocFreeFunc(pass, fd)
		checkAllocFreeClosure(pass, fd)
	}
	return nil
}

// checkAllocFreeClosure follows the same-module call graph out of the
// annotated function fd (facts.go computes per-function callees and alloc
// sites for the whole module) and reports any reachable allocating
// construct in an unannotated callee. Annotated callees are trusted here —
// they are checked at their own declaration — and so are whitelisted
// leaves and calls that do not resolve statically (interface methods, func
// values) or resolve outside the loaded package set.
func checkAllocFreeClosure(pass *analysis.Pass, fd *ast.FuncDecl) {
	if pass.Facts == nil {
		return
	}
	root, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	rootFact := pass.Facts.Funcs[funcKey(root)]
	if rootFact == nil {
		return
	}
	visited := map[string]bool{funcKey(root): true}
	for _, callee := range rootFact.Callees {
		if path, site := findAllocPath(pass.Facts, callee.Name, visited, 6); site != nil {
			pass.Reportf(callee.Pos,
				"call in allocfree function %s reaches an allocating construct: %s (%s at %s)",
				fd.Name.Name, strings.Join(path, " -> "), site.What,
				pass.Fset.Position(site.Pos))
		}
	}
}

// findAllocPath walks the callee closure from key and returns the call
// chain to the first allocating unannotated function, or nil. visited
// persists across sibling calls of one root so each offending function is
// reported through at most one chain.
func findAllocPath(facts *analysis.Facts, key string, visited map[string]bool, depth int) ([]string, *analysis.AllocSite) {
	if depth == 0 || visited[key] {
		return nil, nil
	}
	visited[key] = true
	if _, ok := allocFreeCallWhitelist[key]; ok {
		return nil, nil
	}
	fact := facts.Funcs[key]
	if fact == nil || fact.AllocFree {
		return nil, nil
	}
	if len(fact.AllocSites) > 0 {
		return []string{key}, &fact.AllocSites[0]
	}
	for _, callee := range fact.Callees {
		if path, site := findAllocPath(facts, callee.Name, visited, depth-1); site != nil {
			return append([]string{key}, path...), site
		}
	}
	return nil, nil
}

func checkAllocFreeFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := newAllocChecker(pass.TypesInfo, fd, pass.Reportf)
	ast.Inspect(fd.Body, c.visit)
}

// newAllocChecker prepares a checker over fd's body. The checker is
// decoupled from analysis.Pass so fact collection (facts.go) can run it in
// collect mode over every function of the module, not just annotated ones.
func newAllocChecker(info *types.Info, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) *allocChecker {
	c := &allocChecker{info: info, fd: fd, report: report}
	c.collectAllowedRoots()
	c.collectVarInits()
	c.collectPanicRanges()
	c.collectAddressedLits()
	return c
}

type allocChecker struct {
	info   *types.Info
	fd     *ast.FuncDecl
	report func(token.Pos, string, ...any)
	// allowed are objects whose storage belongs to the caller: parameters,
	// receivers, named results.
	allowed map[types.Object]bool
	// varInits maps a local variable to its initializer, for tracing
	// scratch-buffer aliases like `out := t.scratch[:0]`.
	varInits map[types.Object]ast.Expr
	// panicRanges are the source extents of panic(...) calls; nodes inside
	// are exempt.
	panicRanges [][2]token.Pos
	// addressed marks composite literals under a unary &.
	addressed map[*ast.CompositeLit]bool
}

func (c *allocChecker) collectAllowedRoots() {
	c.allowed = make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := c.info.Defs[name]; obj != nil {
					c.allowed[obj] = true
				}
			}
		}
	}
	addFields(c.fd.Recv)
	addFields(c.fd.Type.Params)
	addFields(c.fd.Type.Results)
}

func (c *allocChecker) collectVarInits() {
	c.varInits = make(map[types.Object]ast.Expr)
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if s.Tok == token.DEFINE {
					obj = c.info.Defs[id]
				} else {
					obj = c.info.Uses[id]
				}
				// First initializer (source order) wins: later
				// self-referential reassignments like `out = append(out, e)`
				// must not shadow the declaration that roots the buffer.
				if obj != nil {
					if _, seen := c.varInits[obj]; !seen {
						c.varInits[obj] = s.Rhs[i]
					}
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) != len(s.Values) {
				return true
			}
			for i, name := range s.Names {
				if obj := c.info.Defs[name]; obj != nil {
					if _, seen := c.varInits[obj]; !seen {
						c.varInits[obj] = s.Values[i]
					}
				}
			}
		}
		return true
	})
}

func (c *allocChecker) collectPanicRanges() {
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isBuiltin := c.info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "panic" {
				c.panicRanges = append(c.panicRanges, [2]token.Pos{call.Pos(), call.End()})
			}
		}
		return true
	})
}

func (c *allocChecker) collectAddressedLits() {
	c.addressed = make(map[*ast.CompositeLit]bool)
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if lit, ok := u.X.(*ast.CompositeLit); ok {
				c.addressed[lit] = true
			}
		}
		return true
	})
}

func (c *allocChecker) inPanic(pos token.Pos) bool {
	for _, r := range c.panicRanges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func (c *allocChecker) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FuncLit:
		c.report(x.Pos(), "closure in allocfree function %s: func literals allocate; hoist the logic or a named function", c.fd.Name.Name)
		return false
	case *ast.CompositeLit:
		if c.inPanic(x.Pos()) {
			return true
		}
		tv, ok := c.info.Types[x]
		if !ok {
			return true
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			c.report(x.Pos(), "%s literal in allocfree function %s allocates backing storage", describeType(tv.Type), c.fd.Name.Name)
		default:
			if c.addressed[x] {
				c.report(x.Pos(), "&%s{...} in allocfree function %s heap-allocates; reuse a scratch value", describeType(tv.Type), c.fd.Name.Name)
			}
		}
	case *ast.BinaryExpr:
		if x.Op != token.ADD || c.inPanic(x.Pos()) {
			return true
		}
		if tv, ok := c.info.Types[x]; ok && tv.Value == nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				c.report(x.Pos(), "string concatenation in allocfree function %s allocates", c.fd.Name.Name)
			}
		}
	case *ast.CallExpr:
		c.visitCall(x)
	}
	return true
}

func (c *allocChecker) visitCall(call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := c.info.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "make", "new":
				if !c.inPanic(call.Pos()) {
					c.report(call.Pos(), "%s in allocfree function %s allocates; preallocate and reuse storage", fun.Name, c.fd.Name.Name)
				}
			case "append":
				if len(call.Args) > 0 && !c.rootAllowed(call.Args[0], 8) && !c.inPanic(call.Pos()) {
					c.report(call.Pos(), "append to %s in allocfree function %s: destination is not rooted in a parameter, receiver or named result, so it grows fresh backing storage", types.ExprString(call.Args[0]), c.fd.Name.Name)
				}
			}
			return
		}
	case *ast.SelectorExpr:
		if pkgID, ok := fun.X.(*ast.Ident); ok {
			if pkgName, ok := c.info.Uses[pkgID].(*types.PkgName); ok &&
				pkgName.Imported().Path() == "fmt" && !c.inPanic(call.Pos()) {
				c.report(call.Pos(), "fmt.%s in allocfree function %s allocates (boxing + formatting); restrict fmt to panic messages", fun.Sel.Name, c.fd.Name.Name)
				return
			}
		}
	}
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() && !c.inPanic(call.Pos()) {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := c.info.Types[call.Args[0]]; ok && !types.IsInterface(atv.Type) {
				c.report(call.Pos(), "conversion to interface %s in allocfree function %s boxes its operand", describeType(tv.Type), c.fd.Name.Name)
			}
		}
	}
}

// rootAllowed traces expr through index/slice/selector wrappers and local
// aliases to its root identifier and reports whether that root's storage
// belongs to the caller (parameter, receiver, named result).
func (c *allocChecker) rootAllowed(expr ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	switch e := expr.(type) {
	case *ast.Ident:
		var obj types.Object
		if obj = c.info.Uses[e]; obj == nil {
			obj = c.info.Defs[e]
		}
		if obj == nil {
			return false
		}
		if c.allowed[obj] {
			return true
		}
		if init, ok := c.varInits[obj]; ok {
			return c.rootAllowed(init, depth-1)
		}
		return false
	case *ast.SelectorExpr:
		return c.rootAllowed(e.X, depth-1)
	case *ast.IndexExpr:
		return c.rootAllowed(e.X, depth-1)
	case *ast.SliceExpr:
		return c.rootAllowed(e.X, depth-1)
	case *ast.ParenExpr:
		return c.rootAllowed(e.X, depth-1)
	case *ast.CallExpr:
		// append(x, ...) chains: the result occupies x's storage when it
		// fits, so the root of the first argument decides.
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			return c.rootAllowed(e.Args[0], depth-1)
		}
		return false
	}
	return false
}

func describeType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// AllocFreeFuncs scans the non-test Go files of dir (no type-checking) and
// returns the names of functions annotated //tokentm:allocfree, as
// "Receiver.Name" for methods and "Name" otherwise, sorted. The
// TestAllocFreeAnnotations table tests use it to keep the static annotation
// list and the dynamic testing.AllocsPerRun table in lock-step.
func AllocFreeFuncs(dir string) ([]string, error) {
	names, err := GoFilesIn(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd, AllocFreeDirective) {
				continue
			}
			out = append(out, funcDisplayName(fd))
		}
	}
	sort.Strings(out)
	return out, nil
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
