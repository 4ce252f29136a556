package lint_test

import (
	"testing"

	"tokentm/internal/lint"
	"tokentm/internal/lint/linttest"
)

// The fixtures live under testdata/src/tokentm/internal/... so that the
// scope rules (determinismPackages, exemptPackages) see the same
// "internal/..." package-key suffixes the real tree produces.

func TestAllocFree(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/allocfree", lint.AllocFree)
}

func TestExhaustive(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/exhaustive", lint.Exhaustive)
}

// TestExhaustiveOrderedOutput covers the byte-stable output packages: the
// trace decorator switches over the same protocol enums as the simulator.
func TestExhaustiveOrderedOutput(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/trace/exhaustive", lint.Exhaustive)
}

// TestAllocFreeInterproc covers the call-graph closure out of annotated
// roots: the seeded allocating-callee bug, trust in annotated callees, and
// the interprocedural panic-path exemption.
func TestAllocFreeInterproc(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/stm/allocfreecalls", lint.AllocFree)
}

// TestDirectives covers //lint:ignore hygiene: suppression in both
// placements, missing-reason and unknown-analyzer diagnostics, and stale
// directive detection.
func TestDirectives(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/directives", lint.AllocFree)
}

// TestHostSideOutOfScope runs the full suite over an exempt stm-side fixture
// holding a partial enum switch and unannotated allocations, and expects zero
// diagnostics: exhaustive is scope-gated and allocfree reads annotations only.
func TestHostSideOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/stm/hostside", lint.Analyzers()...)
}
