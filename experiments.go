package tokentm

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"tokentm/internal/attr"
	"tokentm/internal/harness"
	"tokentm/internal/htm"
	"tokentm/internal/lcs"
	"tokentm/internal/stats"
	"tokentm/internal/workload"
)

// Threads used by the TM experiments: one per core, 32 cores (§6.1).
const evalCores = 32

// RunDetail is the outcome of one workload run on one variant.
type RunDetail struct {
	Workload string
	Variant  Variant
	Cycles   Cycle
	Commits  []htm.CommitRecord
	Metrics  htm.Metrics
	// FastCommits/SlowCommits are TokenTM-specific (0 for LogTM-SE).
	FastCommits, SlowCommits uint64
	// Breakdown is the machine-wide cycle attribution (Figures 7–9): every
	// core-clock cycle charged to one attr.Bucket.
	Breakdown attr.Breakdown
	// CoreTimes is each core's final clock, indexed by core id; the
	// breakdown's total equals their sum when conservation holds.
	CoreTimes []Cycle
	// AbortRecs is the abort-lifecycle stream: one record per aborted
	// attempt, with enemy TID, conflicting block and conflict kind.
	AbortRecs []htm.AbortRecord
}

// RunWorkload executes spec on a fresh 32-core machine with the given
// variant. scale shrinks transaction counts for quick runs; seed perturbs
// backoffs and generators.
func RunWorkload(spec workload.Spec, v Variant, scale float64, seed int64) RunDetail {
	d, _ := runWorkload(spec, v, scale, seed)
	return d
}

// runWorkload is RunWorkload keeping the machine around for post-run
// invariant checks.
func runWorkload(spec workload.Spec, v Variant, scale float64, seed int64) (RunDetail, *System) {
	sys := New(Config{Variant: v, Cores: evalCores, Seed: seed})
	spec.Build(sys.M, evalCores, scale, seed)
	sys.Run()
	return sys.Detail(spec.Name, v), sys
}

// Detail collects a finished run's observables, labelled with the workload
// name and variant it ran.
func (s *System) Detail(workload string, v Variant) RunDetail {
	d := RunDetail{
		Workload:  workload,
		Variant:   v,
		Cycles:    slices.Max(s.M.CoreTimes()),
		Commits:   s.M.Commits,
		Metrics:   *s.HTM.Stats(),
		Breakdown: s.M.BreakdownTotal(),
		CoreTimes: s.M.CoreTimes(),
		AbortRecs: s.M.AbortRecs,
	}
	if tok := s.TokenTM(); tok != nil {
		d.FastCommits = tok.FastCommits
		d.SlowCommits = tok.SlowCommits
	}
	return d
}

// ExperimentRun is the harness.RunFunc behind every sweep: it executes one
// grid cell on a fresh machine and distills the Outcome the tables,
// figures and BENCH files consume. For TokenTM variants it additionally
// audits the double-entry token bookkeeping after the run, so every
// harness job doubles as a correctness gate.
func ExperimentRun(j harness.Job) (harness.Outcome, error) {
	spec, ok := workload.ByName(j.Workload)
	if !ok {
		return harness.Outcome{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	v := Variant(j.Variant)
	known := false
	for _, kv := range Variants() {
		if kv == v {
			known = true
		}
	}
	if !known {
		return harness.Outcome{}, fmt.Errorf("unknown variant %q", j.Variant)
	}
	if err := workload.CheckScale(j.Scale); err != nil {
		return harness.Outcome{}, err
	}
	d, sys := runWorkload(spec, v, j.Scale, j.Seed)
	var coreSum uint64
	for _, t := range d.CoreTimes {
		coreSum += uint64(t)
	}
	out := harness.Outcome{
		Cycles:       uint64(d.Cycles),
		Commits:      uint64(len(d.Commits)),
		Aborts:       d.Metrics.Aborts,
		FastCommits:  d.FastCommits,
		SlowCommits:  d.SlowCommits,
		Breakdown:    d.Breakdown.Map(),
		CoreCycleSum: coreSum,
		Extra: map[string]float64{
			"conflicts":         float64(d.Metrics.Conflicts),
			"false_conflicts":   float64(d.Metrics.FalseConflicts),
			"stalls":            float64(d.Metrics.Stalls),
			"hard_case_lookups": float64(d.Metrics.HardCaseLookups),
		},
	}
	// Cycle conservation is checked per core here, so any unattributed
	// advance fails the job (and with it the sweeps).
	if err := sys.M.CheckConservation(); err != nil {
		return out, fmt.Errorf("cycle attribution after run: %w", err)
	}
	if tok := sys.TokenTM(); tok != nil {
		if err := tok.CheckBookkeeping(); err != nil {
			return out, fmt.Errorf("token bookkeeping after run: %w", err)
		}
	}
	return out, nil
}

// SweepOptions configures a harness runner over the experiment grid.
type SweepOptions struct {
	// Parallel is the worker count (0 = GOMAXPROCS).
	Parallel int
	// Progress receives per-job progress lines when non-nil.
	Progress io.Writer
	// KeepHistory retains every result for a combined JSON report.
	KeepHistory bool
}

// NewRunner builds a harness runner executing ExperimentRun.
func NewRunner(o SweepOptions) *harness.Runner {
	return &harness.Runner{
		Run:         ExperimentRun,
		Parallel:    o.Parallel,
		Progress:    o.Progress,
		KeepHistory: o.KeepHistory,
	}
}

// SpeedupRow is one workload's bars in Figure 1 or Figure 5: speedup of
// each variant normalized to LogTM-SE_Perf, with 95% confidence half-widths
// from the perturbed runs.
type SpeedupRow struct {
	Workload string
	Speedup  map[Variant]float64
	CI       map[Variant]float64
}

// sweep runs every spec × variant × seed job on r, seed innermost, and
// returns the results grouped into one slice per spec × variant cell, in
// the same order. It fails on an empty seed list (no cell would have a
// sample) and on the first failed job.
func sweep(r *harness.Runner, specs []workload.Spec, variants []Variant, scale float64, seeds []int64) ([][]harness.Result, error) {
	if len(seeds) == 0 {
		return nil, errors.New("sweep: empty seed list")
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	vnames := make([]string, len(variants))
	for i, v := range variants {
		vnames[i] = string(v)
	}
	results := r.Sweep(harness.Grid(names, vnames, scale, seeds))
	for _, res := range results {
		if !res.OK() {
			return nil, fmt.Errorf("job %s failed: %s", res.Job, res.Err)
		}
	}
	return slices.Collect(slices.Chunk(results, len(seeds))), nil
}

// speedups runs the given workloads on the given variants over several
// perturbation seeds through the harness and normalizes to LogTM-SE_Perf.
// The grid is swept in parallel (runner's worker count); aggregation walks
// results in job order, so the rows are identical at any parallelism.
func speedups(r *harness.Runner, specs []workload.Spec, variants []Variant, scale float64, seeds []int64) ([]SpeedupRow, error) {
	all := []Variant{VariantLogTMSEPerf}
	for _, v := range variants {
		if v != VariantLogTMSEPerf {
			all = append(all, v)
		}
	}
	cells, err := sweep(r, specs, all, scale, seeds)
	if err != nil {
		return nil, err
	}

	rows := make([]SpeedupRow, 0, len(specs))
	for _, spec := range specs {
		cycles := make([]stats.Sample, len(all))
		for vi := range all {
			for _, res := range cells[0] {
				cycles[vi].Add(float64(res.Outcome.Cycles))
			}
			cells = cells[1:]
		}
		perf := cycles[0].Mean() // all[0] is LogTM-SE_Perf
		row := SpeedupRow{
			Workload: spec.Name,
			Speedup:  make(map[Variant]float64),
			CI:       make(map[Variant]float64),
		}
		for vi, v := range all {
			s := &cycles[vi]
			row.Speedup[v] = perf / s.Mean()
			// First-order error propagation for the ratio.
			if s.Mean() > 0 {
				row.CI[v] = perf / s.Mean() * s.CI95() / s.Mean()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// figure1Specs are the STAMP workloads of Figure 1.
func figure1Specs() []workload.Spec {
	var specs []workload.Spec
	for _, s := range workload.Specs() {
		if s.Suite == "STAMP" {
			specs = append(specs, s)
		}
	}
	return specs
}

// Figure1With reproduces the paper's Figure 1 on the given runner: the
// effect of signature false positives. The four STAMP workloads run on
// LogTM-SE with 2xH3 and 4xH3 Bloom signatures, normalized to
// unimplementable perfect signatures.
func Figure1With(r *harness.Runner, scale float64, seeds []int64) ([]SpeedupRow, error) {
	return speedups(r, figure1Specs(), []Variant{VariantLogTMSE2xH3, VariantLogTMSE4xH3}, scale, seeds)
}

// Figure5With reproduces the paper's Figure 5 on the given runner: all
// eight workloads on all five HTM variants, speedup normalized to
// LogTM-SE_Perf.
func Figure5With(r *harness.Runner, scale float64, seeds []int64) ([]SpeedupRow, error) {
	return speedups(r, workload.Specs(), Variants(), scale, seeds)
}

// Table5Row is one row of the regenerated Table 5 (measured workload
// parameters, validating the generators' calibration).
type Table5Row struct {
	Benchmark string
	Input     string
	NumXacts  int
	AvgRead   float64
	AvgWrite  float64
	MaxRead   int
	MaxWrite  int
}

// Table5 measures the dynamic transaction characteristics of each workload
// (running on TokenTM, as footprints are variant-independent).
func Table5(scale float64, seed int64) []Table5Row {
	var rows []Table5Row
	for _, spec := range workload.Specs() {
		d := RunWorkload(spec, VariantTokenTM, scale, seed)
		row := Table5Row{Benchmark: spec.Name, Input: spec.Input, NumXacts: len(d.Commits)}
		for _, c := range d.Commits {
			row.AvgRead += float64(c.ReadBlocks)
			row.AvgWrite += float64(c.WriteBlocks)
			if c.ReadBlocks > row.MaxRead {
				row.MaxRead = c.ReadBlocks
			}
			if c.WriteBlocks > row.MaxWrite {
				row.MaxWrite = c.WriteBlocks
			}
		}
		if n := float64(len(d.Commits)); n > 0 {
			row.AvgRead /= n
			row.AvgWrite /= n
		}
		rows = append(rows, row)
	}
	return rows
}

// Table6Row is one row of the regenerated Table 6: TokenTM-specific
// overheads.
type Table6Row struct {
	Benchmark string
	// FastPct is the percentage of transactions committing via fast
	// token release.
	FastPct float64
	// Fast-release transaction characteristics.
	FastAvgRead, FastAvgWrite float64
	FastAvgDuration           float64
	// Software-release transaction characteristics.
	SwAvgRead, SwAvgWrite float64
	SwAvgDuration         float64
	// SwReleaseCycles is the average software token-release time.
	SwReleaseCycles float64
	// LogStallPct is log-write stall time as % of total execution time.
	LogStallPct float64
	// HardCaseLookups counts §5.2's log-walk conflict resolutions.
	HardCaseLookups uint64
}

// Table6 measures TokenTM's overheads on every workload.
func Table6(scale float64, seed int64) []Table6Row {
	var rows []Table6Row
	for _, spec := range workload.Specs() {
		d := RunWorkload(spec, VariantTokenTM, scale, seed)
		row := Table6Row{Benchmark: spec.Name, HardCaseLookups: d.Metrics.HardCaseLookups}
		var nFast, nSw float64
		var logStall float64
		for _, c := range d.Commits {
			logStall += float64(c.LogStall)
			if c.Fast {
				nFast++
				row.FastAvgRead += float64(c.ReadBlocks)
				row.FastAvgWrite += float64(c.WriteBlocks)
				row.FastAvgDuration += float64(c.Duration)
			} else {
				nSw++
				row.SwAvgRead += float64(c.ReadBlocks)
				row.SwAvgWrite += float64(c.WriteBlocks)
				row.SwAvgDuration += float64(c.Duration)
				row.SwReleaseCycles += float64(c.ReleaseCycles)
			}
		}
		if nFast > 0 {
			row.FastAvgRead /= nFast
			row.FastAvgWrite /= nFast
			row.FastAvgDuration /= nFast
		}
		if nSw > 0 {
			row.SwAvgRead /= nSw
			row.SwAvgWrite /= nSw
			row.SwAvgDuration /= nSw
			row.SwReleaseCycles /= nSw
		}
		if nFast+nSw > 0 {
			row.FastPct = 100 * nFast / (nFast + nSw)
		}
		if d.Cycles > 0 {
			row.LogStallPct = 100 * logStall / (float64(d.Cycles) * evalCores)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table1 reproduces the paper's Table 1 via the lock-based server models.
func Table1(seed int64) []lcs.Report { return lcs.Table1(seed) }

// --- Text renderers (the harness "prints the same rows the paper reports").

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, rows []lcs.Report) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tAvg LCS\tMax LCS\t% of Total Exec Time\tLCS Events")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f ms\t%.1f ms\t%.2f\t%d\n", r.Name, r.AvgMs, r.MaxMs, r.PctTime, r.Events)
	}
	tw.Flush()
}

// WriteSpeedups renders a Figure 1/5-style table of speedups normalized to
// LogTM-SE_Perf.
func WriteSpeedups(w io.Writer, rows []SpeedupRow, variants []Variant) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Benchmark")
	for _, v := range variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprint(tw, r.Workload)
		for _, v := range variants {
			if ci := r.CI[v]; ci > 0.0005 {
				fmt.Fprintf(tw, "\t%.3f±%.3f", r.Speedup[v], ci)
			} else {
				fmt.Fprintf(tw, "\t%.3f", r.Speedup[v])
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// WriteTable5 renders the measured workload parameters.
func WriteTable5(w io.Writer, rows []Table5Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tInput\tNum Xacts\tAvg Read-Set\tAvg Write-Set\tMax Read-Set\tMax Write-Set")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%d\t%d\n",
			r.Benchmark, r.Input, r.NumXacts, r.AvgRead, r.AvgWrite, r.MaxRead, r.MaxWrite)
	}
	tw.Flush()
}

// WriteTable6 renders TokenTM's overheads.
func WriteTable6(w io.Writer, rows []Table6Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\t% Fast Xacts\tFast RS\tFast WS\tFast Dur\tSw RS\tSw WS\tSw Dur\tSw Release\tLog Stall %")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.0f\t%.1f\t%.1f\t%.0f\t%.0f\t%.2f\n",
			r.Benchmark, r.FastPct,
			r.FastAvgRead, r.FastAvgWrite, r.FastAvgDuration,
			r.SwAvgRead, r.SwAvgWrite, r.SwAvgDuration, r.SwReleaseCycles, r.LogStallPct)
	}
	tw.Flush()
}
