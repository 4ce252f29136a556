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
// charter: the stm subsystem (the TM, the KV store, the wire codec and the
// server) runs on actual goroutines and its load generator reads time.Now
// for throughput and latency. They are exempt from the simulation contracts
// *explicitly* — listed here rather than relying on "not in simPackages" —
// so the exemption survives refactors of the scope logic and is pinned by
// fixture tests. Note stm imports internal/metastate, which stays fully in
// scope: the packing helpers it reuses are wall-clock-free by this very gate.
var hostSidePackages = []string{
	"stm",
	"cmd",
}

// exemptPackages are bound by no contract: the module root (public facade),
// the examples, host-side analysis helpers, and the lint tooling itself.
// Every module package must appear in exactly one scope — this list exists
// so "unclassified" is always a mistake, never a default.
// TestScopeCoversModule pins the invariant against `go list ./...`.
var exemptPackages = []string{
	".",
	"examples",
	"internal/harness",
	"internal/lint",
	"internal/randstream",
	"internal/stats",
	"internal/workload",
}

// relKey reduces an import path to the module-relative form every scope list
// is written in: "tokentm" -> ".", "tokentm/examples/bank" -> "examples/bank".
// The lint fixtures under testdata/src/tokentm import as tokentm/... too, so
// they key like the packages they mimic. Paths outside the module map to "".
func relKey(path string) string {
	if path == modulePath {
		return "."
	}
	rel, ok := strings.CutPrefix(path, modulePath+"/")
	if !ok {
		return ""
	}
	return rel
}

// inList reports whether the package path is one of the listed packages or a
// subpackage of one.
func inList(path string, list []string) bool {
	key := relKey(path)
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
	// contracts. The module-wide atomicfield ban and annotation-driven
	// allocfree still bind it, and its wait loops are checked to yield at
	// run time (TestWaitsYield, TestTL2WaitsYield).
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
	case inList(path, simPackages):
		return ScopeSim
	case inList(path, orderedOutputPackages):
		return ScopeOrderedOutput
	case inList(path, hostSidePackages):
		return ScopeHostSide
	case inList(path, exemptPackages):
		return ScopeExempt
	}
	return ScopeUnknown
}
