package lint_test

import (
	"testing"

	"tokentm/internal/lint"
	"tokentm/internal/lint/linttest"
)

// The fixtures live under testdata/src/tokentm/internal/... so that the
// scope rules (determinismPackages, exemptPackages) see the same
// "internal/..." package-key suffixes the real tree produces.

func TestExhaustive(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/sim/exhaustive", lint.Exhaustive)
}

// TestExhaustiveOrderedOutput covers the byte-stable output packages: the
// trace decorator switches over the same protocol enums as the simulator.
func TestExhaustiveOrderedOutput(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/internal/trace/exhaustive", lint.Exhaustive)
}

// TestHostSideOutOfScope runs the full suite over an exempt stm-side fixture
// holding a partial enum switch, and expects zero diagnostics: exhaustive is
// scope-gated.
func TestHostSideOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata/src/tokentm/stm/hostside", lint.Analyzers()...)
}
