package lint

import "strings"

// The determinism contract (DESIGN.md §"Determinism contract") binds the
// packages that execute *simulated* work — everything a simulated cycle
// count, cache state or commit stream can observe — and the packages whose
// output must be byte-stable (trace dumps, plot text). Host-side packages
// (the stm subsystem, the harness, the experiment drivers) measure
// wall-clock time and aggregate freely.

// determinismPackages are bound by the determinism contract:
// TestExhaustiveSwitches checks their enum switches, and
// TestDeterminismPackagesImportNoTime keeps the wall clock out of them.
var determinismPackages = []string{
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
	"internal/plot",
	"internal/sig",
	"internal/sim",
	"internal/statehash",
	"internal/tmlog",
	"internal/trace",
}

// exemptPackages are bound by no scoped contract: the host-concurrent stm
// subsystem and commands, which read time.Now for throughput and latency by
// charter, the module root (public facade), the examples, host-side
// analysis helpers, and the lint package itself. Every module package must
// appear in exactly one list, so "unclassified" is always a mistake, never
// a default; TestScopeCoversModule pins that against `go list ./...`.
var exemptPackages = []string{
	".",
	"cmd",
	"examples",
	"internal/harness",
	"internal/lint",
	"internal/randstream",
	"internal/stats",
	"internal/workload",
	"stm",
}

// modulePath is the import-path root of the module. Fixture packages under
// testdata/src/tokentm mimic the same prefix on purpose.
const modulePath = "tokentm"

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
	// ScopeDeterminism: the determinism contract (exhaustive enum
	// switches, no time import).
	ScopeDeterminism Scope = "determinism"
	// ScopeExempt: bound by no scoped contract (host side, tooling,
	// examples, facade).
	ScopeExempt Scope = "exempt"
	// ScopeUnknown: not classified — always a configuration error.
	ScopeUnknown Scope = "unknown"
)

// ScopeOf classifies a package import path. Every package `go list ./...`
// reports must classify to something other than ScopeUnknown; the scope
// sync test enforces this, so a new package cannot silently dodge the
// contract.
func ScopeOf(path string) Scope {
	switch {
	case inList(path, determinismPackages):
		return ScopeDeterminism
	case inList(path, exemptPackages):
		return ScopeExempt
	}
	return ScopeUnknown
}
