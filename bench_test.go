package tokentm

// The benchmark harness regenerates every table and figure in the paper's
// evaluation section as testing.B benchmarks (use -bench with -benchtime=1x
// for one full regeneration pass, or cmd/experiments for the formatted
// tables). Reported custom metrics carry the experiment's headline numbers
// into the benchmark output.
//
// The figure benchmarks run on internal/harness (Figure1/Figure5 sweep
// their grids through the parallel job system); BenchmarkHarnessSweep
// measures the job system itself at serial vs full parallelism.

import (
	"fmt"
	"runtime"
	"testing"

	"tokentm/internal/harness"
	"tokentm/internal/stats"
	"tokentm/internal/workload"
)

// benchScale keeps the in-benchmark experiment runs quick; cmd/experiments
// regenerates publication-scale numbers.
const benchScale = 0.01

// BenchmarkTable1 regenerates the long-running-critical-section analysis of
// the four lock-based server workloads.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table1(int64(i + 1))
		if len(rows) != 4 {
			b.Fatal("table 1 rows")
		}
		if i == 0 {
			b.ReportMetric(rows[1].AvgMs, "Apache-avg-ms")
			b.ReportMetric(rows[3].PctTime, "BIND-pct")
		}
	}
}

// BenchmarkFigure1 regenerates the false-positive study: STAMP workloads on
// the LogTM-SE signature variants.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Figure1(benchScale, []int64{int64(i + 1)})
		for _, r := range rows {
			if r.Workload == "Delaunay" && i == 0 {
				b.ReportMetric(r.Speedup[VariantLogTMSE2xH3], "Delaunay-2xH3-speedup")
				b.ReportMetric(r.Speedup[VariantLogTMSE4xH3], "Delaunay-4xH3-speedup")
			}
		}
	}
}

// BenchmarkFigure5 regenerates the headline comparison: all eight workloads
// on all five HTM variants.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Figure5(benchScale, []int64{int64(i + 1)})
		if len(rows) != 8 {
			b.Fatal("figure 5 rows")
		}
		if i == 0 {
			for _, r := range rows {
				if r.Workload == "Delaunay" {
					b.ReportMetric(r.Speedup[VariantTokenTM], "Delaunay-TokenTM-speedup")
				}
			}
		}
	}
}

// BenchmarkTable5 regenerates the measured workload parameters.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table5(benchScale, int64(i+1))
		if len(rows) != 8 {
			b.Fatal("table 5 rows")
		}
	}
}

// BenchmarkTable6 regenerates TokenTM's overhead breakdown.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table6(benchScale, int64(i+1))
		if i == 0 {
			for _, r := range rows {
				if r.Benchmark == "Genome" {
					b.ReportMetric(r.FastPct, "Genome-fast-pct")
				}
			}
		}
	}
}

// BenchmarkHarnessSweep measures the experiment-grid job system end to end:
// the full 8 workloads × 5 variants grid swept through internal/harness at
// serial and full parallelism. The parallel/serial wall-clock ratio is the
// sweep speedup the harness buys on this host; per-job wall medians and
// p95s come from the stats order statistics.
func BenchmarkHarnessSweep(b *testing.B) {
	jobs := harness.Grid(workload.Names(), variantNames(), benchScale, []int64{1})
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := NewRunner(SweepOptions{Parallel: par})
				results := r.Sweep(jobs)
				if i != 0 {
					continue
				}
				wall := &stats.Sample{}
				for _, res := range results {
					if !res.OK() {
						b.Fatalf("job %s failed: %s", res.Job, res.Err)
					}
					wall.Add(float64(res.WallNS) / 1e6)
				}
				b.ReportMetric(float64(len(results)), "jobs/op")
				b.ReportMetric(wall.Median(), "job-wall-median-ms")
				b.ReportMetric(wall.Percentile(95), "job-wall-p95-ms")
			}
		})
	}
}

// variantNames is the variant axis of the benchmark grid.
func variantNames() []string {
	var names []string
	for _, v := range Variants() {
		names = append(names, string(v))
	}
	return names
}

// BenchmarkWorkloadVariant measures simulator throughput per workload and
// variant (simulated transactions per wall-clock second appear as the
// xacts/op metric; one op = one scaled run).
func BenchmarkWorkloadVariant(b *testing.B) {
	for _, wl := range []string{"Cholesky", "Delaunay"} {
		spec, _ := workload.ByName(wl)
		for _, v := range []Variant{VariantTokenTM, VariantLogTMSE4xH3} {
			b.Run(fmt.Sprintf("%s/%s", wl, v), func(b *testing.B) {
				var xacts int
				for i := 0; i < b.N; i++ {
					d := RunWorkload(spec, v, benchScale, int64(i+1))
					xacts = len(d.Commits)
				}
				b.ReportMetric(float64(xacts), "xacts/op")
			})
		}
	}
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out. ---

// BenchmarkAblationFastRelease isolates §4.4's mechanism by running the
// same workload with and without fast token release.
func BenchmarkAblationFastRelease(b *testing.B) {
	spec, _ := workload.ByName("Raytrace")
	for _, v := range []Variant{VariantTokenTM, VariantTokenTMNoFast} {
		b.Run(string(v), func(b *testing.B) {
			var cycles Cycle
			for i := 0; i < b.N; i++ {
				d := RunWorkload(spec, v, benchScale, int64(i+1))
				cycles = d.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationRetryLimit sweeps the contention manager's livelock
// backstop on a contended workload.
func BenchmarkAblationRetryLimit(b *testing.B) {
	spec, _ := workload.ByName("Vacation-High")
	for _, limit := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			var cycles Cycle
			var aborts uint64
			for i := 0; i < b.N; i++ {
				sys := New(Config{Variant: VariantTokenTM, Cores: 32, Seed: int64(i + 1), RetryLimit: limit})
				spec.Build(sys.M, 32, benchScale, int64(i+1))
				cycles = sys.Run()
				aborts = sys.HTM.Stats().Aborts
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(aborts), "aborts")
		})
	}
}

// BenchmarkAblationSignatureKind sweeps signature precision on the workload
// most sensitive to it.
func BenchmarkAblationSignatureKind(b *testing.B) {
	spec, _ := workload.ByName("Delaunay")
	for _, v := range []Variant{VariantLogTMSEPerf, VariantLogTMSE4xH3, VariantLogTMSE2xH3} {
		b.Run(string(v), func(b *testing.B) {
			var cycles Cycle
			var falseConf uint64
			for i := 0; i < b.N; i++ {
				d := RunWorkload(spec, v, benchScale, int64(i+1))
				cycles = d.Cycles
				falseConf = d.Metrics.FalseConflicts
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(falseConf), "false-conflicts")
		})
	}
}

// smallSweep runs a small experiment grid (2 workloads × 2 variants) end to
// end through the harness, serially: the grid BenchmarkSmallSweep times and
// TestSmallSweepAllocBudget counts.
func smallSweep(tb testing.TB) {
	jobs := harness.Grid(
		[]string{"Cholesky", "Vacation-High"},
		[]string{string(VariantTokenTM), string(VariantLogTMSE4xH3)},
		0.005, []int64{1})
	r := NewRunner(SweepOptions{Parallel: 1})
	for _, res := range r.Sweep(jobs) {
		if !res.OK() {
			tb.Fatalf("job %s failed: %s", res.Job, res.Err)
		}
	}
}

// BenchmarkSmallSweep is the macro companion to internal/core's
// protocol-path microbenchmarks: total allocations and wall time per sweep
// bound how far publication-scale sweeps can push before the allocator
// throttles them.
func BenchmarkSmallSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		smallSweep(b)
	}
}

// TestSmallSweepAllocBudget is the one guard on the sweep's allocation
// count (~11 300 per pass; the protocol paths inside it are pinned at 0 by
// internal/core's TestAllocFreeAnnotations). The budget is 20 % over the
// 10 040 recorded once the value store and the directory stopped paging;
// making each simulated thread an iter.Pull coroutine added ~10 per thread
// (10 033 → 11 288), which it still covers.
func TestSmallSweepAllocBudget(t *testing.T) {
	const budget = 12050
	if got := testing.AllocsPerRun(3, func() { smallSweep(t) }); got > budget {
		t.Errorf("small sweep: %.0f allocs per pass, budget %d", got, budget)
	}
}

// BenchmarkSimSweep runs the grid of cmd/tokentm-bench's sim-sweep workload
// (4 workloads × 3 HTM variants at scale 0.01, one sweep worker), one pass
// per op, rotating the perturbation seed through 1-4. `make simprofile`
// profiles it under GOMAXPROCS=1, as the workload runs.
func BenchmarkSimSweep(b *testing.B) {
	var grids [4][]harness.Job
	for i := range grids {
		grids[i] = harness.Grid(
			[]string{"Cholesky", "Delaunay", "Vacation-High", "Genome"},
			[]string{string(VariantTokenTM), string(VariantLogTMSEPerf), string(VariantLogTMSE4xH3)},
			0.01, []int64{int64(i + 1)})
	}
	r := NewRunner(SweepOptions{Parallel: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range r.Sweep(grids[i%len(grids)]) {
			if !res.OK() {
				b.Fatalf("job %s failed: %s", res.Job, res.Err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: wall-clock
// time per simulated run of 16k transactional accesses on one core.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const accessesPerRun = 16384
	for i := 0; i < b.N; i++ {
		sys := New(Config{Variant: VariantTokenTM, Cores: 1})
		sys.Spawn(func(tc *Ctx) {
			done := 0
			for done < accessesPerRun {
				tc.Atomic(func(tx *Tx) {
					for j := 0; j < 16; j++ {
						a := Addr(0x100000 + (done%4096)*BlockBytes)
						tx.Store(a, tx.Load(a)+1)
						done++
					}
				})
			}
		})
		sys.Run()
	}
	b.ReportMetric(accessesPerRun, "accesses/op")
}
