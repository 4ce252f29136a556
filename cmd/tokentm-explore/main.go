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
// error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tokentm/internal/core"
	"tokentm/internal/explore"
	"tokentm/internal/trace"
)

func main() {
	var (
		program   = flag.String("program", "incr-cross", "standard program to explore (see -list)")
		variant   = flag.String("variant", "TokenTM", "HTM variant: "+strings.Join(explore.Variants, ", "))
		mutation  = flag.String("mutation", "none", "seeded protocol bug: none, no-fission-writer, skip-log-credit")
		schedules = flag.Int("max-schedules", explore.DefaultBudget().MaxSchedules, "schedule budget")
		steps     = flag.Int("max-steps", explore.DefaultBudget().MaxSteps, "per-schedule step bound (livelock limit)")
		depth     = flag.Int("branch-depth", explore.DefaultBudget().BranchDepth, "branch only in the first N decisions (0 = unbounded)")
		preempts  = flag.Int("preempts", explore.DefaultBudget().Preempts, "adversary context-switch budget per schedule")
		bounces   = flag.Int("bounces", explore.DefaultBudget().Bounces, "adversary page-out/page-in budget per schedule")
		seed      = flag.Int64("seed", explore.DefaultBudget().Seed, "machine RNG seed")
		sweep     = flag.Bool("sweep", false, "run the full standard sweep (all programs x variants + mutation smoke)")
		jsonOut   = flag.String("json", "", "write the sweep as JSON to this file (- for stdout; implies -sweep)")
		replay    = flag.String("replay", "", "replay one schedule (counterexample) instead of exploring")
		withTrace = flag.Bool("trace", false, "with -replay: dump the protocol event trace")
		list      = flag.Bool("list", false, "list standard programs and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tokentm-explore: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	if *list {
		for _, p := range explore.StandardPrograms() {
			fmt.Printf("%-16s %d cores, %d threads, %d blocks, %d txns\n",
				p.Name, p.Cores, len(p.Threads), p.Blocks, p.Txns())
		}
		return
	}

	mut, ok := core.MutationByName(*mutation)
	if !ok {
		fmt.Fprintf(os.Stderr, "tokentm-explore: unknown mutation %q\n", *mutation)
		os.Exit(2)
	}

	if *jsonOut != "" {
		*sweep = true
	}
	if *sweep {
		runSweep(*jsonOut)
		return
	}

	prog := explore.ProgramByName(*program)
	if prog == nil {
		fmt.Fprintf(os.Stderr, "tokentm-explore: unknown program %q (try -list)\n", *program)
		os.Exit(2)
	}

	if *replay != "" {
		runReplay(prog, *variant, mut, *replay, *seed, *steps, *withTrace)
		return
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
	fmt.Printf("%s/%s: %d schedules, %d steps, %d distinct states, pruned %d seen + %d sleep, max depth %d, complete=%v\n",
		r.Program, r.Variant, r.Schedules, r.Steps, r.DistinctStates,
		r.PrunedVisited, r.PrunedSleep, r.MaxDepth, r.Complete)
	fmt.Printf("  %d commits, %d aborts, %d violating schedules\n", r.Commits, r.Aborts, r.TotalViolations)
	for _, v := range r.Violations {
		fmt.Printf("VIOLATION %s at step %d: %s\n  replay: tokentm-explore -program %s -variant %s -mutation %s -replay %s\n",
			v.Kind, v.Step, v.Message, r.Program, r.Variant, mut, v.Schedule)
	}
	if r.TotalViolations > 0 {
		os.Exit(1)
	}
}

func runSweep(jsonOut string) {
	sw := explore.StandardSweep(explore.DefaultBudget())
	switch jsonOut {
	case "":
		explore.WriteTable(os.Stdout, sw)
	case "-":
		if err := explore.WriteJSON(os.Stdout, sw); err != nil {
			fmt.Fprintln(os.Stderr, "tokentm-explore:", err)
			os.Exit(2)
		}
	default:
		f, err := os.Create(jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tokentm-explore:", err)
			os.Exit(2)
		}
		if err := explore.WriteJSON(f, sw); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tokentm-explore:", err)
			os.Exit(2)
		}
		explore.WriteTable(os.Stdout, sw)
	}
	if fails := sw.Failures(); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
}

func runReplay(prog *explore.Program, variant string, mut core.Mutation, schedule string, seed int64, maxSteps int, withTrace bool) {
	var tr *trace.Tracer
	if withTrace {
		tr = trace.NewTracer(1 << 16)
	}
	rr, err := explore.Replay(prog, variant, mut, schedule, seed, maxSteps, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-explore:", err)
		os.Exit(2)
	}
	fmt.Printf("replayed %s/%s mutation=%s: %d steps, schedule %s\n", prog.Name, variant, mut, rr.Steps, rr.Schedule)
	if tr != nil {
		tr.Dump(os.Stdout)
	}
	if rr.Violation != nil {
		fmt.Printf("VIOLATION %s at step %d: %s\n", rr.Violation.Kind, rr.Violation.Step, rr.Violation.Message)
		os.Exit(1)
	}
	fmt.Printf("clean: %d commits, %d aborts, fingerprint %#x\n", len(rr.Commits), rr.Aborts, rr.Fingerprint)
}
