package tokentm

// Execution-time breakdowns (the paper's Figures 7–9): where do the cycles
// of each variant × workload cell go? Rows are normalized to the workload's
// LogTM-SE_Perf total, so a faster variant's stack is visibly shorter than
// the baseline's 100 — the same presentation the paper uses to explain *why*
// TokenTM wins, not just that it does.

import (
	"fmt"
	"io"
	"text/tabwriter"

	"tokentm/internal/attr"
	"tokentm/internal/harness"
	"tokentm/internal/stats"
	"tokentm/internal/workload"
)

// BreakdownRow is one (workload, variant) cell of the execution-time
// breakdown: mean cycles per bucket (machine-wide, summed over cores)
// across the perturbation seeds.
type BreakdownRow struct {
	Workload string
	Variant  Variant
	// Cycles is indexed in attr bucket order (attr.Buckets()).
	Cycles []float64
}

// Total sums the row's buckets.
func (r BreakdownRow) Total() float64 {
	var t float64
	for _, v := range r.Cycles {
		t += v
	}
	return t
}

// BreakdownGrid sweeps the given workloads on every variant over the
// perturbation seeds through the harness and aggregates the per-job
// breakdowns into mean cycles per bucket. Every job runs ExperimentRun, so
// cycle conservation is enforced per run. Results are walked in job order
// (seed innermost), so the rows are identical at any parallelism.
func BreakdownGrid(r *harness.Runner, specs []workload.Spec, scale float64, seeds []int64) ([]BreakdownRow, error) {
	variants := Variants()
	cells, err := sweep(r, specs, variants, scale, seeds)
	if err != nil {
		return nil, err
	}

	rows := make([]BreakdownRow, 0, len(cells))
	for _, spec := range specs {
		for _, v := range variants {
			samples := make([]stats.Sample, attr.NumBuckets)
			for _, res := range cells[0] {
				for bi, b := range attr.Buckets() {
					samples[bi].Add(float64(res.Outcome.Breakdown[b.String()]))
				}
			}
			cells = cells[1:]
			row := BreakdownRow{Workload: spec.Name, Variant: v, Cycles: make([]float64, attr.NumBuckets)}
			for bi := range samples {
				row.Cycles[bi] = samples[bi].Mean()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// baselineTotal returns the workload's LogTM-SE_Perf total — the 100 mark
// every stack in that workload's group is normalized to.
func baselineTotal(rows []BreakdownRow, wl string) float64 {
	for _, r := range rows {
		if r.Workload == wl && r.Variant == VariantLogTMSEPerf {
			return r.Total()
		}
	}
	return 0
}

// WriteBreakdownTable renders the Figure 7-style table: one row per
// workload × variant, one column per bucket, as percent of the workload's
// LogTM-SE_Perf total.
func WriteBreakdownTable(w io.Writer, rows []BreakdownRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Benchmark\tVariant")
	for _, name := range attr.BucketNames() {
		fmt.Fprintf(tw, "\t%s", name)
	}
	fmt.Fprintln(tw, "\ttotal")
	for _, r := range rows {
		base := baselineTotal(rows, r.Workload)
		if base <= 0 {
			base = r.Total()
		}
		fmt.Fprintf(tw, "%s\t%s", r.Workload, r.Variant)
		for _, v := range r.Cycles {
			fmt.Fprintf(tw, "\t%.1f", 100*v/base)
		}
		fmt.Fprintf(tw, "\t%.1f\n", 100*r.Total()/base)
	}
	tw.Flush()
	fmt.Fprintln(w, "(percent of the workload's LogTM-SE_Perf cycles; rows sum to their total)")
}
