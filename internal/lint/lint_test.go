package lint_test

import (
	"testing"

	"tokentm/internal/lint"
	"tokentm/internal/lint/linttest"
)

// The fixtures live under testdata/src/tokentm/internal/... so that the
// scope rules (simPackages, orderedOutputPackages) see the same
// "internal/..." package-key suffixes the real tree produces.

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/maporder", lint.MapOrder)
}

func TestWallClock(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/wallclock", lint.WallClock)
}

func TestAllocFree(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/allocfree", lint.AllocFree)
}

func TestExhaustive(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/exhaustive", lint.Exhaustive)
}

// TestExhaustiveOrderedOutput covers the ordered-output packages: the trace
// decorator switches over the same protocol enums as the simulator.
func TestExhaustiveOrderedOutput(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/trace/exhaustive", lint.Exhaustive)
}

// TestAtomicField covers the ban on function-style sync/atomic calls.
func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/stm/atomicfield", lint.AtomicField)
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
	linttest.Run(t, "testdata/src/tokentm/internal/sim/directives", lint.WallClock)
}

// TestHostSideOutOfScope runs the full suite over a harness-side fixture
// that reads the wall clock, uses global rand and ranges over maps — and
// expects zero diagnostics, because scope gating exempts host-side code.
func TestHostSideOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/harness/hostside", lint.Analyzers()...)
}

// TestSTMHostSideExempt pins the explicit exemption for the stm subsystem:
// stm/... is host-side by charter (wall-clock latency measurement), so the
// full analyzer suite reports nothing for it.
func TestSTMHostSideExempt(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/stm/hostside", lint.Analyzers()...)
}
