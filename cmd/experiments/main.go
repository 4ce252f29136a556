// Command experiments regenerates every table and figure in the paper's
// evaluation section.
//
// Usage:
//
//	experiments -run all            # everything (slow at full scale)
//	experiments -run fig5 -scale 0.05 -seeds 3
//	experiments -run table1,table6
//	experiments -run fig5 -parallel 8 -json sweep.json
//
// Scale shrinks the Table 5 transaction counts proportionally; the paper's
// full counts correspond to -scale 1. An unknown -run name, -seeds below 1
// or -scale outside (0, 1] exits 2 before any work starts.
//
// The figure sweeps run on the internal/harness job system: -parallel sets
// the worker-pool size (default GOMAXPROCS), -json writes the per-job
// results as a tokentm-harness/v1 document, and progress is reported per job
// on stderr (disable with -progress=false). The JSON is deterministic:
// byte-identical at any -parallel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"tokentm"
	"tokentm/internal/harness"
	"tokentm/internal/workload"
)

func main() {
	run := flag.String("run", "all", "comma-separated: "+strings.Join(sections, ","))
	scale := flag.Float64("scale", 0.05, "fraction of the paper's per-workload transaction counts")
	seeds := flag.Int("seeds", 3, "number of perturbed runs (error bars) for fig1/fig5")
	seed := flag.Int64("seed", 1, "base seed")
	parallel := flag.Int("parallel", 0, "harness worker-pool size (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write per-job sweep results as JSON to this path (\"-\" = stdout)")
	progress := flag.Bool("progress", true, "report per-job sweep progress on stderr")
	flag.Parse()

	want, err := checkFlags(*run, *seeds, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}
	all := want["all"]
	out := os.Stdout

	var progw io.Writer
	if *progress {
		progw = os.Stderr
	}
	runner := tokentm.NewRunner(tokentm.SweepOptions{
		Parallel:    *parallel,
		Progress:    progw,
		KeepHistory: *jsonOut != "",
	})

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}

	section := func(title string) func() {
		fmt.Fprintf(out, "==== %s ====\n", title)
		t0 := time.Now()
		return func() { fmt.Fprintf(out, "(%.1fs)\n\n", time.Since(t0).Seconds()) }
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if all || want["table1"] {
		done := section("Table 1: Long-running Critical Sections (LCS)")
		tokentm.WriteTable1(out, tokentm.Table1(*seed))
		done()
	}
	if all || want["table2"] {
		done := section("Table 2: Common Metastate Transitions")
		tokentm.WriteTable2(out)
		done()
	}
	if all || want["table3"] {
		done := section("Table 3: Metastate Fission and Fusion")
		tokentm.WriteTable3(out)
		done()
	}
	if all || want["table4"] {
		done := section("Table 4: Metabit Encodings")
		tokentm.WriteTable4(out)
		done()
	}
	if all || want["table5"] {
		done := section(fmt.Sprintf("Table 5: Workload Parameters (measured, scale=%.3g)", *scale))
		tokentm.WriteTable5(out, tokentm.Table5(*scale, *seed))
		done()
	}
	if all || want["fig1"] {
		done := section(fmt.Sprintf("Figure 1: Effect of False Positives (speedup vs LogTM-SE_Perf, scale=%.3g, %d seeds)", *scale, *seeds))
		rows, err := tokentm.Figure1With(runner, *scale, seedList)
		if err != nil {
			fail(err)
		}
		vs := []tokentm.Variant{tokentm.VariantLogTMSEPerf, tokentm.VariantLogTMSE2xH3, tokentm.VariantLogTMSE4xH3}
		tokentm.WriteSpeedups(out, rows, vs)
		done()
	}
	if all || want["fig5"] {
		done := section(fmt.Sprintf("Figure 5: TokenTM Performance (speedup vs LogTM-SE_Perf, scale=%.3g, %d seeds)", *scale, *seeds))
		rows, err := tokentm.Figure5With(runner, *scale, seedList)
		if err != nil {
			fail(err)
		}
		tokentm.WriteSpeedups(out, rows, tokentm.Variants())
		done()
	}
	if all || want["breakdown"] {
		done := section(fmt.Sprintf("Figures 7-9: Execution-Time Breakdown (%% of LogTM-SE_Perf cycles, scale=%.3g, %d seeds)", *scale, *seeds))
		rows, err := tokentm.BreakdownGrid(runner, workload.Specs(), *scale, seedList)
		if err != nil {
			fail(err)
		}
		tokentm.WriteBreakdownTable(out, rows)
		done()
	}
	if all || want["table6"] {
		done := section(fmt.Sprintf("Table 6: TokenTM Specific Overheads (scale=%.3g)", *scale))
		tokentm.WriteTable6(out, tokentm.Table6(*scale, *seed))
		done()
	}

	if *jsonOut != "" {
		w := out
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := harness.WriteJSON(w, harness.CodeVersion(), runner.History()); err != nil {
			fail(err)
		}
	}
}

// sections are the names -run accepts.
var sections = []string{"table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig5", "breakdown", "all"}

// checkFlags validates the flags before any work starts and returns the set
// of -run names. An unknown name would run nothing, -seeds below 1 leaves
// the speedup tables without a baseline sample, and a scale that
// workload.CheckScale rejects would fail every run.
func checkFlags(run string, seeds int, scale float64) (map[string]bool, error) {
	want := map[string]bool{}
	for _, s := range strings.Split(run, ",") {
		s = strings.TrimSpace(s)
		if !slices.Contains(sections, s) {
			return nil, fmt.Errorf("-run: unknown name %q", s)
		}
		want[s] = true
	}
	if seeds < 1 {
		return nil, fmt.Errorf("-seeds %d: need at least 1", seeds)
	}
	if err := workload.CheckScale(scale); err != nil {
		return nil, fmt.Errorf("-scale: %w", err)
	}
	return want, nil
}
