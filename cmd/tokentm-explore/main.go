// Command tokentm-explore is the schedule-exploration (stateless model
// checking) front end: it drives the simulated HTM variants through many
// distinct schedules of small transactional programs and checks the token
// protocol's invariants after every step.
//
// Usage:
//
//	tokentm-explore [flags]                   explore one program/variant cell
//	tokentm-explore -sweep [-json out.json]   full standard sweep + mutation smoke
//	tokentm-explore -replay R0.R1.P0.B.R0 ... re-run one schedule (with -trace)
//
// Exit status: 0 clean, 1 violations found (or a mutation missed), 2 usage
// error: an unknown name, -max-schedules or -max-steps below 1, or a
// negative -branch-depth, -preempts or -bounces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tokentm/internal/core"
	"tokentm/internal/explore"
	"tokentm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, does the requested work and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tokentm-explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		program   = fs.String("program", "incr-cross", "standard program to explore (see -list)")
		variant   = fs.String("variant", "TokenTM", "HTM variant: "+strings.Join(explore.Variants, ", "))
		mutation  = fs.String("mutation", "none", "seeded protocol bug: none, no-fission-writer, skip-log-credit")
		schedules = fs.Int("max-schedules", explore.DefaultBudget().MaxSchedules, "schedule budget")
		steps     = fs.Int("max-steps", explore.DefaultBudget().MaxSteps, "per-schedule step bound (livelock limit)")
		depth     = fs.Int("branch-depth", explore.DefaultBudget().BranchDepth, "branch only in the first N decisions (0 = unbounded)")
		preempts  = fs.Int("preempts", explore.DefaultBudget().Preempts, "adversary context-switch budget per schedule")
		bounces   = fs.Int("bounces", explore.DefaultBudget().Bounces, "adversary page-out/page-in budget per schedule")
		seed      = fs.Int64("seed", explore.DefaultBudget().Seed, "machine RNG seed")
		sweep     = fs.Bool("sweep", false, "run the full standard sweep (all programs x variants + mutation smoke)")
		jsonOut   = fs.String("json", "", "write the sweep as JSON to this file (- for stdout; implies -sweep)")
		replay    = fs.String("replay", "", "replay one schedule (counterexample) instead of exploring")
		withTrace = fs.Bool("trace", false, "with -replay: dump the protocol event trace")
		list      = fs.Bool("list", false, "list standard programs and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tokentm-explore: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	switch {
	case !slices.Contains(explore.Variants, *variant):
		return usage("unknown variant %q (one of %s)", *variant, strings.Join(explore.Variants, ", "))
	case *schedules < 1:
		return usage("-max-schedules %d: need at least 1", *schedules)
	case *steps < 1:
		return usage("-max-steps %d: need at least 1", *steps)
	case *depth < 0 || *preempts < 0 || *bounces < 0:
		return usage("-branch-depth, -preempts and -bounces must not be negative")
	}

	if *list {
		for _, p := range explore.StandardPrograms() {
			fmt.Fprintf(stdout, "%-16s %d cores, %d threads, %d blocks, %d txns\n",
				p.Name, p.Cores, len(p.Threads), p.Blocks, p.Txns())
		}
		return 0
	}

	mut, ok := core.MutationByName(*mutation)
	if !ok {
		return usage("unknown mutation %q", *mutation)
	}

	if *jsonOut != "" {
		*sweep = true
	}
	if *sweep {
		return runSweep(*jsonOut, stdout, stderr)
	}

	prog := explore.ProgramByName(*program)
	if prog == nil {
		return usage("unknown program %q (try -list)", *program)
	}

	if *replay != "" {
		return runReplay(prog, *variant, mut, *replay, *seed, *steps, *withTrace, stdout, stderr)
	}

	opts := explore.DefaultOptions(*variant, explore.Budget{
		MaxSchedules: *schedules,
		MaxSteps:     *steps,
		BranchDepth:  *depth,
		Preempts:     *preempts,
		Bounces:      *bounces,
		Seed:         *seed,
	})
	opts.Mutation = mut
	r := explore.Explore(prog, opts)
	fmt.Fprintf(stdout, "%s/%s: %d schedules, %d steps, %d distinct states, pruned %d seen + %d sleep, max depth %d, complete=%v\n",
		r.Program, r.Variant, r.Schedules, r.Steps, r.DistinctStates,
		r.PrunedVisited, r.PrunedSleep, r.MaxDepth, r.Complete)
	fmt.Fprintf(stdout, "  %d commits, %d aborts, %d violating schedules\n", r.Commits, r.Aborts, r.TotalViolations)
	for _, v := range r.Violations {
		fmt.Fprintf(stdout, "VIOLATION %s at step %d: %s\n  replay: tokentm-explore -program %s -variant %s -mutation %s -replay %s\n",
			v.Kind, v.Step, v.Message, r.Program, r.Variant, mut, v.Schedule)
	}
	if r.TotalViolations > 0 {
		return 1
	}
	return 0
}

func runSweep(jsonOut string, stdout, stderr io.Writer) int {
	sw := explore.StandardSweep(explore.DefaultBudget())
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tokentm-explore:", err)
		return 2
	}
	switch jsonOut {
	case "":
		explore.WriteTable(stdout, sw)
	case "-":
		if err := explore.WriteJSON(stdout, sw); err != nil {
			return fail(err)
		}
	default:
		f, err := os.Create(jsonOut)
		if err != nil {
			return fail(err)
		}
		if err := explore.WriteJSON(f, sw); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			return fail(err)
		}
		explore.WriteTable(stdout, sw)
	}
	if fails := sw.Failures(); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(stderr, "FAIL:", f)
		}
		return 1
	}
	return 0
}

func runReplay(prog *explore.Program, variant string, mut core.Mutation, schedule string, seed int64, maxSteps int, withTrace bool, stdout, stderr io.Writer) int {
	var tr *trace.Tracer
	if withTrace {
		tr = trace.NewTracer(1 << 16)
	}
	rr, err := explore.Replay(prog, variant, mut, schedule, seed, maxSteps, tr)
	if err != nil {
		fmt.Fprintln(stderr, "tokentm-explore:", err)
		return 2
	}
	fmt.Fprintf(stdout, "replayed %s/%s mutation=%s: %d steps, schedule %s\n", prog.Name, variant, mut, rr.Steps, rr.Schedule)
	if tr != nil {
		tr.Dump(stdout)
	}
	if rr.Violation != nil {
		fmt.Fprintf(stdout, "VIOLATION %s at step %d: %s\n", rr.Violation.Kind, rr.Violation.Step, rr.Violation.Message)
		return 1
	}
	fmt.Fprintf(stdout, "clean: %d commits, %d aborts, fingerprint %#x\n", len(rr.Commits), rr.Aborts, rr.Fingerprint)
	return 0
}
