// Package directives is a lint fixture for //lint:ignore handling: both
// placements (trailing, standalone-above), multi-analyzer lists, and the
// hygiene diagnostics for missing reasons, unknown analyzers, stale
// directives and unknown //tokentm: annotations. Run with the wallclock
// analyzer.
package directives

import "time"

// missingReason: a directive without a reason is itself a diagnostic and
// suppresses nothing, so the finding on the clock call survives too.
func missingReason() time.Time {
	//lint:ignore wallclock
	// want-1 `lint: //lint:ignore wallclock is missing a reason`
	return time.Now() // want `wallclock: time.Now in a simulation package`
}

// stale: a well-formed directive whose target line has no finding is
// reported, so suppressions cannot outlive the code they excuse.
func stale(d time.Duration) time.Duration {
	//lint:ignore wallclock no clock call here anymore
	// want-1 `lint: stale //lint:ignore: no wallclock finding on the target line`
	return d * 2
}

// suppressedAbove: standalone directive targets the next line.
func suppressedAbove() time.Time {
	//lint:ignore wallclock fixture exercises standalone suppression
	return time.Now()
}

// suppressedTrailing: end-of-line directive targets its own line.
func suppressedTrailing() time.Time {
	return time.Now() //lint:ignore wallclock fixture exercises trailing suppression
}

// multiAnalyzer: a comma-separated analyzer list suppresses any of them.
func multiAnalyzer() time.Time {
	return time.Now() //lint:ignore maporder,wallclock fixture exercises a multi-analyzer list
}

// unknownAnalyzer: naming a non-existent analyzer is a diagnostic.
func unknownAnalyzer() int {
	//lint:ignore nosuchcheck the analyzer name is misspelled on purpose
	// want-1 `lint: //lint:ignore names unknown analyzer nosuchcheck`
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
