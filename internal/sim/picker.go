package sim

import "tokentm/internal/mem"

// CoreChoice is one schedulable core: the core id and the cycle at which it
// could next run a thread (its clock, or the earliest ready/wake time of a
// queued thread if the core is currently idle).
type CoreChoice struct {
	Core    int
	ReadyAt mem.Cycle
}

// MinTimeCore is the scheduling policy: of the non-empty RunnableCores slice
// (ascending core id) it returns the core with the smallest ready time, ties
// broken by the lower core id — strict less-than over ascending ids. This
// yields the deterministic, causally consistent interleaving documented in
// the package comment. Run's per-turn loop steps it every turn; the schedule
// explorer (internal/explore) drives StepOn itself and calls it for the
// default choice at each decision point.
//
//tokentm:allocfree
func MinTimeCore(choices []CoreChoice) int {
	best := choices[0]
	for _, c := range choices[1:] {
		if c.ReadyAt < best.ReadyAt {
			best = c
		}
	}
	return best.Core
}
