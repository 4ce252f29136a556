package explore

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"tokentm/internal/core"
)

// Format identifies the sweep JSON document version.
const Format = "tokentm-explore/v1"

// MutationCheck is one seeded-bug smoke result: exploring the program with
// the protocol mutation enabled must surface a violation, proving the
// checker's invariants have teeth.
type MutationCheck struct {
	Mutation  string     `json:"mutation"`
	Program   string     `json:"program"`
	Variant   string     `json:"variant"`
	Detected  bool       `json:"detected"`
	Schedules int        `json:"schedules"`
	Violation *Violation `json:"violation,omitempty"`
}

// SweepResult is the full standard sweep: every program x variant explored
// exhaustively, plus the mutation smoke checks. Fully deterministic — no
// wall-clock fields — so CI regenerates and byte-diffs it.
type SweepResult struct {
	Format         string          `json:"format"`
	Budget         Budget          `json:"budget"`
	Results        []*Result       `json:"results"`
	MutationChecks []MutationCheck `json:"mutation_checks"`
}

// mutationTargets pairs each seeded bug with the standard program shaped to
// expose it: skip-log-credit trips on any token acquire, no-fission-writer
// needs a writer whose line leaves the L1 (page bounce) and is re-read.
func mutationTargets() []struct {
	mut  core.Mutation
	prog string
} {
	return []struct {
		mut  core.Mutation
		prog string
	}{
		{core.MutSkipLogCredit, "incr-cross"},
		{core.MutNoFissionWriter, "writer-reread"},
	}
}

// CheckMutation explores prog under the seeded bug, stopping at the first
// counterexample.
func CheckMutation(mut core.Mutation, progName string, b Budget) MutationCheck {
	prog := ProgramByName(progName)
	if prog == nil {
		panic("explore: unknown mutation target program " + progName)
	}
	opts := DefaultOptions("TokenTM", b)
	opts.Mutation = mut
	opts.StopOnViolation = true
	r := Explore(prog, opts)
	mc := MutationCheck{
		Mutation:  mut.String(),
		Program:   progName,
		Variant:   "TokenTM",
		Detected:  len(r.Violations) > 0,
		Schedules: r.Schedules,
	}
	if mc.Detected {
		v := r.Violations[0]
		mc.Violation = &v
	}
	return mc
}

// StandardSweep explores every standard program under every variant
// exhaustively within the budget, then runs the mutation smoke checks.
func StandardSweep(b Budget) *SweepResult {
	sw := &SweepResult{Format: Format, Budget: b}
	for _, prog := range StandardPrograms() {
		for _, variant := range Variants {
			sw.Results = append(sw.Results, Explore(prog, DefaultOptions(variant, b)))
		}
	}
	for _, t := range mutationTargets() {
		sw.MutationChecks = append(sw.MutationChecks, CheckMutation(t.mut, t.prog, b))
	}
	return sw
}

// WriteJSON writes the sweep document with stable formatting.
func WriteJSON(w io.Writer, sw *SweepResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sw)
}

// WriteTable renders the sweep as a human-readable report.
func WriteTable(w io.Writer, sw *SweepResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tvariant\tschedules\tstates\tpruned(seen)\tpruned(sleep)\tcomplete\tmax-depth\tviolations")
	for _, r := range sw.Results {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%v\t%d\t%d\n",
			r.Program, r.Variant, r.Schedules, r.DistinctStates,
			r.PrunedVisited, r.PrunedSleep, r.Complete, r.MaxDepth, r.TotalViolations)
	}
	tw.Flush()
	for _, r := range sw.Results {
		for _, v := range r.Violations {
			fmt.Fprintf(w, "VIOLATION %s/%s %s at step %d: %s\n  replay: %s\n",
				r.Program, r.Variant, v.Kind, v.Step, v.Message, v.Schedule)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "mutation smoke (seeded protocol bugs must be detected):")
	for _, mc := range sw.MutationChecks {
		status := "DETECTED"
		if !mc.Detected {
			status = "MISSED"
		}
		fmt.Fprintf(w, "  %-18s on %-14s %s after %d schedules", mc.Mutation, mc.Program, status, mc.Schedules)
		if mc.Violation != nil {
			fmt.Fprintf(w, " (%s: %s)\n    replay: %s\n", mc.Violation.Kind, mc.Violation.Message, mc.Violation.Schedule)
		} else {
			fmt.Fprintln(w)
		}
	}
}

// Failures summarizes everything wrong with a sweep: protocol violations in
// unmutated runs, incomplete enumerations, and missed mutations. Empty means
// the sweep is green.
func (sw *SweepResult) Failures() []string {
	var out []string
	for _, r := range sw.Results {
		if r.TotalViolations > 0 {
			out = append(out, fmt.Sprintf("%s/%s: %d violating schedules (first: %s)",
				r.Program, r.Variant, r.TotalViolations, r.Violations[0].Message))
		}
		if !r.Complete {
			out = append(out, fmt.Sprintf("%s/%s: enumeration incomplete within %d schedules",
				r.Program, r.Variant, r.Schedules))
		}
	}
	for _, mc := range sw.MutationChecks {
		if !mc.Detected {
			out = append(out, fmt.Sprintf("mutation %s on %s: NOT detected — checker has lost its teeth",
				mc.Mutation, mc.Program))
		}
	}
	return out
}
