// Package directives is a lint fixture for //lint:ignore handling: both
// placements (trailing, standalone-above), multi-analyzer lists, and the
// hygiene diagnostics for missing reasons, unknown analyzers, stale
// directives and unknown //tokentm: annotations. Run with the allocfree
// analyzer.
package directives

// missingReason: a directive without a reason is itself a diagnostic and
// suppresses nothing, so the finding on the make survives too.
//
//tokentm:allocfree
func missingReason(n int) []byte {
	//lint:ignore allocfree
	// want-1 `lint: //lint:ignore allocfree is missing a reason`
	return make([]byte, n) // want `allocfree: make in allocfree function missingReason allocates`
}

// stale: a well-formed directive whose target line has no finding is
// reported, so suppressions cannot outlive the code they excuse.
//
//tokentm:allocfree
func stale(n int) int {
	//lint:ignore allocfree no allocation here anymore
	// want-1 `lint: stale //lint:ignore: no allocfree finding on the target line`
	return n * 2
}

// suppressedAbove: standalone directive targets the next line.
//
//tokentm:allocfree
func suppressedAbove(n int) []byte {
	//lint:ignore allocfree fixture exercises standalone suppression
	return make([]byte, n)
}

// suppressedTrailing: end-of-line directive targets its own line.
//
//tokentm:allocfree
func suppressedTrailing(n int) []byte {
	return make([]byte, n) //lint:ignore allocfree fixture exercises trailing suppression
}

// multiAnalyzer: a comma-separated analyzer list suppresses any of them,
// not just the first.
//
//tokentm:allocfree
func multiAnalyzer(n int) []byte {
	return make([]byte, n) //lint:ignore exhaustive,allocfree fixture exercises a multi-analyzer list
}

// unknownAnalyzer: naming a non-existent analyzer is a diagnostic. maporder
// is a retired one: naming it anywhere fails the lint.
func unknownAnalyzer() int {
	//lint:ignore maporder the analyzer was retired
	// want-1 `lint: //lint:ignore names unknown analyzer maporder`
	return 0
}

// unknownAnnotation: a //tokentm: annotation the suite does not know is a
// diagnostic, so a misspelled or retired one cannot sit unread. backoff is
// the retired one: restoring it anywhere fails the lint.
//
// want+2 `lint: unknown annotation //tokentm:backoff`
//
//tokentm:backoff
func unknownAnnotation() int { return 0 }
