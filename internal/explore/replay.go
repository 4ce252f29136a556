package explore

import (
	"fmt"
	"slices"

	"tokentm/internal/core"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/sim"
	"tokentm/internal/trace"
)

// ReplayResult is one forced re-execution of a serialized schedule.
type ReplayResult struct {
	Schedule    string
	Steps       int
	Violation   *Violation
	Fingerprint uint64 // zero when the run ends in a violation
	Commits     []htm.CommitRecord
	CoreTimes   []mem.Cycle
	Aborts      int
}

// Replay re-executes a serialized schedule (from a Violation or
// FormatSchedule) on a fresh machine, following the default min-time
// schedule past the end of the recorded prefix. Because execution is
// deterministic given the decision sequence, replaying a counterexample
// reproduces its violation exactly; a non-nil tracer captures the protocol
// event stream for diagnosis. A forced decision that its decision point does
// not offer (a core that cannot run or be preempted, a bounce on a LogTM-SE
// variant) is an error, not a violation.
func Replay(prog *Program, variant string, mut core.Mutation, schedule string, seed int64, maxSteps int, tr *trace.Tracer) (*ReplayResult, error) {
	ds, err := ParseSchedule(schedule)
	if err != nil {
		return nil, err
	}
	if maxSteps <= 0 {
		maxSteps = DefaultBudget().MaxSteps
	}
	i := 0
	var bad error
	rr := runSchedule(prog, variant, mut, runOpts{
		seed:     seed,
		maxSteps: maxSteps,
		// The recorded prefix already respected the original budgets;
		// forced replay only needs budgets large enough to honor it.
		preempts: len(ds),
		bounces:  len(ds),
		tracer:   tr,
	}, func(m *sim.Machine, tok *core.TokenTM, choices []sim.CoreChoice, def int, st *runState) (Decision, bool) {
		if i == len(ds) {
			return Decision{Kind: DecRun, Core: def}, true
		}
		d := ds[i]
		if alts := enumerate(m, tok, choices, def, st); !slices.Contains(alts, d) {
			bad = fmt.Errorf("explore: schedule decision %d (%v) is not offered; the alternatives are %v", i, d, alts)
			return Decision{}, false
		}
		i++
		return d, true
	})
	if bad != nil {
		return nil, bad
	}
	return &ReplayResult{
		Schedule:    FormatSchedule(rr.schedule),
		Steps:       rr.steps,
		Violation:   rr.violation,
		Fingerprint: rr.fingerprint,
		Commits:     rr.commits,
		CoreTimes:   rr.coreTimes,
		Aborts:      rr.aborts,
	}, nil
}
