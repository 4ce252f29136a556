// Command tokentm-sim runs one workload on one HTM variant and prints a
// detailed report: cycles, transaction statistics, conflict breakdown,
// memory-system counters and (for TokenTM) commit kinds.
//
// Usage:
//
//	tokentm-sim -workload Delaunay -variant TokenTM -scale 0.05 -seed 1
//	tokentm-sim -workload Delaunay -breakdown
//	tokentm-sim -list
//
// -breakdown runs the chosen workload on every variant and prints the
// Figure 7-style execution-time breakdown table (cycle-attribution buckets
// as percent of the LogTM-SE_Perf total), enforcing exact cycle
// conservation. -scale outside (0, 1] is an error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"

	"tokentm"
	"tokentm/internal/stats"
	"tokentm/internal/trace"
	"tokentm/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, "tokentm-sim:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tokentm-sim", flag.ContinueOnError)
	name := fs.String("workload", "Genome", "workload name (see -list)")
	variant := fs.String("variant", "TokenTM", "HTM variant: TokenTM, TokenTM_NoFast, LogTM-SE_Perf, LogTM-SE_2xH3, LogTM-SE_4xH3")
	scale := fs.Float64("scale", 0.05, "fraction of the paper's transaction count")
	seed := fs.Int64("seed", 1, "simulation seed")
	list := fs.Bool("list", false, "list workloads and exit")
	traceN := fs.Int("trace", 0, "dump the last N HTM events after the run")
	breakdown := fs.Bool("breakdown", false, "run all variants and print the execution-time breakdown (Figure 7 style)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := workload.CheckScale(*scale); err != nil {
		return fmt.Errorf("-scale: %w", err)
	}

	if *list {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Workload\tSuite\tInput\tXacts\tAvg RS\tAvg WS\tMax RS\tMax WS")
		for _, s := range workload.Specs() {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.1f\t%.1f\t%d\t%d\n",
				s.Name, s.Suite, s.Input, s.NumXacts, s.AvgRead, s.AvgWrite, s.MaxRead, s.MaxWrite)
		}
		return tw.Flush()
	}

	spec, ok := workload.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (use -list)", *name)
	}

	if *breakdown {
		runner := tokentm.NewRunner(tokentm.SweepOptions{})
		rows, err := tokentm.BreakdownGrid(runner, []workload.Spec{spec}, *scale, []int64{*seed})
		if err != nil {
			// A conservation violation is a simulator bug, not a user error.
			return fmt.Errorf("breakdown: %w", err)
		}
		fmt.Fprintf(w, "workload=%s scale=%g seed=%d\n\n", spec.Name, *scale, *seed)
		tokentm.WriteBreakdownTable(w, rows)
		return nil
	}

	v := tokentm.Variant(*variant)
	if !slices.Contains(tokentm.Variants(), v) {
		return fmt.Errorf("unknown variant %q", *variant)
	}
	sys := tokentm.New(tokentm.Config{Variant: v, Cores: 32, Seed: *seed})
	var tr *trace.Tracer
	if *traceN > 0 {
		tr = trace.NewTracer(*traceN)
		sys.M.SetHTM(trace.Wrap(sys.HTM, tr))
	}
	spec.Build(sys.M, 32, *scale, *seed)
	sys.Run()
	d := sys.Detail(spec.Name, v)

	fmt.Fprintf(w, "workload=%s variant=%s scale=%g seed=%d\n", d.Workload, d.Variant, *scale, *seed)
	fmt.Fprintf(w, "execution: %d cycles, %d committed transactions\n\n", d.Cycles, len(d.Commits))

	var rs, ws, dur stats.Sample
	var logStall, release float64
	for _, c := range d.Commits {
		rs.Add(float64(c.ReadBlocks))
		ws.Add(float64(c.WriteBlocks))
		dur.Add(float64(c.Duration))
		logStall += float64(c.LogStall)
		release += float64(c.ReleaseCycles)
	}
	if rs.N() > 0 {
		// Max is NaN on an empty sample; a run with zero commits prints the
		// count above and skips the per-commit shape lines.
		fmt.Fprintf(w, "read set:  avg %.1f max %.0f blocks\n", rs.Mean(), rs.Max())
		fmt.Fprintf(w, "write set: avg %.1f max %.0f blocks\n", ws.Mean(), ws.Max())
		fmt.Fprintf(w, "duration:  avg %.0f max %.0f cycles\n", dur.Mean(), dur.Max())
	}
	fmt.Fprintln(w)

	m := d.Metrics
	fmt.Fprintf(w, "conflicts=%d (read-vs-writer %d, write-vs-readers %d, write-vs-writer %d, non-transactional %d)\n",
		m.Conflicts, m.ReadVsWriter, m.WriteVsReaders, m.WriteVsWriter, m.NonXactConf)
	fmt.Fprintf(w, "stalls=%d aborts=%d false-positive conflicts=%d hard-case log walks=%d\n",
		m.Stalls, len(d.AbortRecs), m.FalseConflicts, m.HardCaseLookups)

	if d.FastCommits+d.SlowCommits > 0 {
		fmt.Fprintf(w, "\nTokenTM: fast token release commits=%d software release commits=%d (%.1f%% fast)\n",
			d.FastCommits, d.SlowCommits,
			100*float64(d.FastCommits)/float64(d.FastCommits+d.SlowCommits))
		fmt.Fprintf(w, "total software release time=%.0f cycles, total log stall=%.0f cycles\n", release, logStall)
	}

	if tr != nil {
		fmt.Fprintf(w, "\n--- last %d of %d HTM events ---\n", tr.Len(), tr.Total())
		tr.Dump(w)
	}
	return nil
}
