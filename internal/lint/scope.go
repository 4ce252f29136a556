package lint

import "strings"

// The determinism and hot-path contracts (DESIGN.md §"Determinism contract")
// bind the packages that execute *simulated* work: everything a simulated
// cycle count, cache state, or commit stream can observe. Host-side packages
// (the harness, the experiment drivers, plotting) measure wall-clock time
// and aggregate freely; they are exempt from wallclock and allocfree, and
// maporder applies to them only where their output must be byte-stable.

// simPackages are the simulation packages: no wall-clock, no global rand,
// no map-order-dependent control flow, exhaustive enum switches.
var simPackages = []string{
	"internal/attr",
	"internal/cache",
	"internal/coherence",
	"internal/core",
	"internal/explore",
	"internal/htm",
	"internal/interconnect",
	"internal/lcs",
	"internal/logtmse",
	"internal/mem",
	"internal/metastate",
	"internal/sig",
	"internal/sim",
	"internal/statehash",
	"internal/tmlog",
}

// orderedOutputPackages additionally owe deterministic, byte-stable output
// (trace dumps, plot text): maporder and exhaustive cover them on top of
// simPackages.
var orderedOutputPackages = []string{
	"internal/plot",
	"internal/trace",
}

// hostSidePackages are host-concurrent packages that measure real time by
// charter: the stm subsystem runs on actual goroutines and its load
// generator reads time.Now for throughput and latency. They are exempt
// from the simulation contracts *explicitly* — listed here rather than
// relying on "not in simPackages" — so the exemption survives refactors of
// the scope logic and is pinned by fixture tests. Note stm imports
// internal/metastate, which stays fully in scope: the packing helpers it
// reuses are wall-clock-free by this very gate.
var hostSidePackages = []string{
	"stm",
	// The network front end (wire codec + TCP server) is registered
	// explicitly even though the "stm" prefix already covers it: the
	// fixture tests pin these entries so a future split of stm/... into
	// separate scope roots cannot silently drop the server from the
	// concurrency-discipline analyzers.
	"stm/resp",
	"stm/server",
	"cmd",
}

// exemptPackages are bound by no contract: the module root (public facade),
// the examples, host-side analysis helpers, and the lint tooling itself. Every module package must appear in
// exactly one scope — this list exists so "unclassified" is always a
// mistake, never a default. TestScopeCoversModule pins the invariant
// against `go list ./...`. Paths are module-relative; "." is the root.
var exemptPackages = []string{
	".",
	"examples",
	"internal/harness",
	"internal/lint",
	"internal/randstream",
	"internal/stats",
	"internal/workload",
}

// pkgKey reduces an import path to its module-relative form: the suffix
// starting at "internal/". Paths without an internal/ element (the root
// package, cmd/...) are out of every scope.
func pkgKey(path string) string {
	if path == "" {
		return ""
	}
	if strings.HasPrefix(path, "internal/") {
		return path
	}
	if i := strings.Index(path, "/internal/"); i >= 0 {
		return path[i+1:]
	}
	return ""
}

// inList reports whether the package path is one of the listed packages or a
// subpackage of one.
func inList(path string, list []string) bool {
	key := pkgKey(path)
	if key == "" {
		return false
	}
	for _, p := range list {
		if key == p || strings.HasPrefix(key, p+"/") {
			return true
		}
	}
	return false
}

// hostKey reduces an import path to its module-relative form for the
// host-side roots (stm/..., cmd/...), the counterpart of pkgKey.
func hostKey(path string) string {
	for _, root := range hostSidePackages {
		if path == root || strings.HasPrefix(path, root+"/") {
			return path
		}
		if strings.HasSuffix(path, "/"+root) {
			return root
		}
		if i := strings.Index(path, "/"+root+"/"); i >= 0 {
			return path[i+1:]
		}
	}
	return ""
}

// isHostSidePackage reports whether path is host-side by charter and thus
// explicitly exempt from the wallclock contract.
func isHostSidePackage(path string) bool {
	key := hostKey(path)
	if key == "" {
		return false
	}
	for _, p := range hostSidePackages {
		if key == p || strings.HasPrefix(key, p+"/") {
			return true
		}
	}
	return false
}

// isSimPackage reports whether path is bound by the full simulation
// contract.
func isSimPackage(path string) bool { return inList(path, simPackages) }

// isOrderedOutputPackage reports whether path owes deterministic iteration
// order for its output without being a simulation package.
func isOrderedOutputPackage(path string) bool { return inList(path, orderedOutputPackages) }

// relKey reduces an import path to its module-relative form for the exempt
// list: "tokentm" -> ".", "tokentm/examples/bank" -> "examples/bank". Paths outside the
// module map to "".
func relKey(path string) string {
	if path == modulePath {
		return "."
	}
	if strings.HasPrefix(path, modulePath+"/") {
		return strings.TrimPrefix(path, modulePath+"/")
	}
	return ""
}

// isExemptPackage reports whether path is explicitly outside every contract.
func isExemptPackage(path string) bool {
	key := relKey(path)
	if key == "" {
		return false
	}
	for _, p := range exemptPackages {
		if key == p || (p != "." && strings.HasPrefix(key, p+"/")) {
			return true
		}
	}
	return false
}

// Scope labels the contract binding one package.
type Scope string

const (
	// ScopeSim: full simulation contract (wallclock, maporder, allocfree,
	// exhaustive).
	ScopeSim Scope = "sim"
	// ScopeOrderedOutput: byte-stable output on top of the sim contract's
	// maporder and exhaustive rules.
	ScopeOrderedOutput Scope = "ordered-output"
	// ScopeHostSide: host-concurrent by charter; exempt from the simulation
	// contracts, covered by the concurrency-discipline analyzer
	// atomicfield and annotation-driven allocfree.
	ScopeHostSide Scope = "host-side"
	// ScopeExempt: bound by no contract (tooling, examples, facade).
	ScopeExempt Scope = "exempt"
	// ScopeUnknown: not classified — always a configuration error.
	ScopeUnknown Scope = "unknown"
)

// ScopeOf classifies a package import path. Every package `go list ./...`
// reports must classify to something other than ScopeUnknown; the scope
// sync test enforces this, so a new package cannot silently dodge the
// contracts.
func ScopeOf(path string) Scope {
	switch {
	case isSimPackage(path):
		return ScopeSim
	case isOrderedOutputPackage(path):
		return ScopeOrderedOutput
	case isHostSidePackage(path):
		return ScopeHostSide
	case isExemptPackage(path):
		return ScopeExempt
	}
	return ScopeUnknown
}
