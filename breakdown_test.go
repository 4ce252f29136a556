package tokentm

import (
	"math"
	"strings"
	"testing"

	"tokentm/internal/attr"
	"tokentm/internal/harness"
	"tokentm/internal/workload"
)

// TestCycleConservationAcrossGrid is the end-to-end conservation property:
// every workload × variant cell, run through the same entry point the
// harness uses, must attribute every simulated cycle (ExperimentRun folds
// sim.CheckConservation into its error) and report a breakdown whose
// buckets sum to the core clocks, with every bucket name present.
func TestCycleConservationAcrossGrid(t *testing.T) {
	for _, wl := range workload.Names() {
		for _, v := range Variants() {
			t.Run(wl+"/"+string(v), func(t *testing.T) {
				out, err := ExperimentRun(harness.Job{Workload: wl, Variant: string(v), Scale: 0.005, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Breakdown) != int(attr.NumBuckets) {
					t.Fatalf("breakdown has %d buckets, want %d: %v", len(out.Breakdown), attr.NumBuckets, out.Breakdown)
				}
				var sum uint64
				for _, name := range attr.BucketNames() {
					if _, ok := out.Breakdown[name]; !ok {
						t.Fatalf("bucket %q missing from breakdown", name)
					}
					sum += out.Breakdown[name]
				}
				if sum != out.CoreCycleSum {
					t.Fatalf("buckets sum to %d cycles, core clocks to %d", sum, out.CoreCycleSum)
				}
				if out.CoreCycleSum == 0 {
					t.Fatal("core clocks never advanced")
				}
				if out.Breakdown["useful"] == 0 {
					t.Fatal("no cycles classified useful")
				}
			})
		}
	}
}

// TestRunWorkloadBreakdownMatchesAborts cross-checks the abort stream
// against the cycle attribution: Wasted cycles are present exactly when
// attempts aborted.
func TestRunWorkloadBreakdownMatchesAborts(t *testing.T) {
	spec, ok := workload.ByName("Delaunay")
	if !ok {
		t.Fatal("Delaunay workload missing")
	}
	d := RunWorkload(spec, VariantLogTMSE2xH3, 0.01, 1)
	wasted := d.Breakdown.Get(attr.Wasted)
	if aborts := len(d.AbortRecs); aborts > 0 && wasted == 0 {
		t.Fatalf("%d aborts but no wasted cycles", aborts)
	}
	if len(d.AbortRecs) == 0 && wasted != 0 {
		t.Fatalf("no aborts but %d wasted cycles", wasted)
	}
}

// TestWorkloadBreakdownReport smoke-tests the Figure 7-style table on real
// rows from a one-workload, one-seed grid (cmd/tokentm-sim's -breakdown):
// one row per variant, normalized so the LogTM-SE_Perf row totals 100.
func TestWorkloadBreakdownReport(t *testing.T) {
	spec, ok := workload.ByName("Genome")
	if !ok {
		t.Fatal("Genome workload missing")
	}
	rows, err := BreakdownGrid(NewRunner(SweepOptions{}), []workload.Spec{spec}, 0.005, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Variants()) {
		t.Fatalf("%d rows, want %d", len(rows), len(Variants()))
	}

	var table strings.Builder
	WriteBreakdownTable(&table, rows)
	out := table.String()
	for _, v := range Variants() {
		if !strings.Contains(out, string(v)) {
			t.Errorf("table missing variant %s:\n%s", v, out)
		}
	}
	if !strings.Contains(out, "100.0") {
		t.Errorf("baseline row does not total 100:\n%s", out)
	}
}

// TestGridsRejectEmptySeeds: every grid sweep refuses an empty seed list
// instead of aggregating cells with no sample.
func TestGridsRejectEmptySeeds(t *testing.T) {
	r := NewRunner(SweepOptions{})
	if _, err := Figure1With(r, 0.002, nil); err == nil {
		t.Error("Figure1With with no seeds: no error")
	}
	if _, err := Figure5With(r, 0.002, []int64{}); err == nil {
		t.Error("Figure5With with no seeds: no error")
	}
	if _, err := BreakdownGrid(r, workload.Specs(), 0.002, nil); err == nil {
		t.Error("BreakdownGrid with no seeds: no error")
	}
}

// TestBadScaleRejected: a scale outside (0, 1] panics in RunWorkload (and
// so in Table5 and Table6) and is an error from ExperimentRun (and so from
// every sweep), never a quiet full-scale run.
func TestBadScaleRejected(t *testing.T) {
	spec, _ := workload.ByName("Genome")
	for _, scale := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunWorkload at scale %g did not panic", scale)
				}
			}()
			RunWorkload(spec, VariantTokenTM, scale, 1)
		}()
		if _, err := ExperimentRun(harness.Job{Workload: "Genome", Variant: string(VariantTokenTM), Scale: scale, Seed: 1}); err == nil {
			t.Errorf("ExperimentRun at scale %g: no error", scale)
		}
	}
	if _, err := Figure1With(NewRunner(SweepOptions{}), 0, []int64{1}); err == nil {
		t.Error("Figure1With at scale 0: no error")
	}
}
