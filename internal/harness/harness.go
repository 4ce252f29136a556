// Package harness turns the experiment grid of the paper's evaluation
// (§6.1: workloads × HTM variants × perturbation seeds) into a job system.
//
// Each simulated machine is self-contained and deterministic by seed, so
// the grid is embarrassingly parallel across real cores. The harness runs
// every Job on its own machine in its own goroutine (a worker pool sized to
// GOMAXPROCS by default), isolates panics (a crashing simulation marks its
// job failed with the stack attached instead of killing the sweep), and
// aggregates results in job order — output is byte-stable regardless of
// goroutine scheduling.
//
// The package is deliberately independent of the root tokentm package: the
// simulation to run arrives as a RunFunc, so harness has no import cycle
// with the experiment definitions that use it.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job identifies one cell of the experiment grid. Two jobs with equal
// fields are the same experiment.
type Job struct {
	// Workload names a workload.Spec (e.g. "Delaunay").
	Workload string `json:"workload"`
	// Variant names an HTM variant (e.g. "TokenTM").
	Variant string `json:"variant"`
	// Scale shrinks transaction counts for quick runs: in (0, 1], with 1
	// the full Table 5 counts (workload.CheckScale).
	Scale float64 `json:"scale"`
	// Seed perturbs backoffs and generators.
	Seed int64 `json:"seed"`
}

// String renders the job compactly for progress lines and errors.
func (j Job) String() string {
	return fmt.Sprintf("%s/%s scale=%g seed=%d", j.Workload, j.Variant, j.Scale, j.Seed)
}

// Outcome is the deterministic, seed-reproducible measurement of one job:
// the metrics every later consumer (tables, figures, BENCH files) needs.
type Outcome struct {
	// Cycles is the simulated makespan.
	Cycles uint64 `json:"cycles"`
	// Commits is the number of committed transactions.
	Commits uint64 `json:"commits"`
	// Aborts is the number of transactional aborts.
	Aborts uint64 `json:"aborts"`
	// FastCommits/SlowCommits split TokenTM commits by release path
	// (both 0 for LogTM-SE variants).
	FastCommits uint64 `json:"fast_commits"`
	SlowCommits uint64 `json:"slow_commits"`
	// Extra carries variant-specific counters (false conflicts, hard-case
	// lookups, ...) without widening the schema per variant.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Breakdown is the machine-wide cycle attribution, bucket name → cycles
	// (attr.Bucket names; every bucket present, zero or not). Its values
	// must sum to CoreCycleSum — Verify enforces this conservation.
	Breakdown map[string]uint64 `json:"breakdown,omitempty"`
	// CoreCycleSum is the sum of all per-core clocks after the run (the
	// denominator of the breakdown's percentages).
	CoreCycleSum uint64 `json:"core_cycle_sum,omitempty"`
}

// Result is a Job plus its Outcome, or its failure.
type Result struct {
	Job     Job     `json:"job"`
	Outcome Outcome `json:"outcome"`
	// WallNS is host wall-clock time for the run in nanoseconds. It is
	// cleared by WriteJSON: only simulated metrics are byte-stable across
	// hosts and parallelism levels.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Err is non-empty if the job failed (an error or a panic).
	Err string `json:"err,omitempty"`
	// Stack is the goroutine stack for a panicking job.
	Stack string `json:"stack,omitempty"`
}

// OK reports whether the job succeeded.
func (r Result) OK() bool { return r.Err == "" }

// RunFunc executes one job on a fresh simulated machine and reports its
// measurements. Implementations must be safe to call from multiple
// goroutines at once: every call must build its own machine and share no
// mutable state with other calls.
type RunFunc func(Job) (Outcome, error)

// Runner executes sweeps of jobs.
type Runner struct {
	// Run executes one job. Required.
	Run RunFunc
	// Parallel is the worker-pool size; 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Progress, when non-nil, receives one line per finished job
	// (conventionally os.Stderr).
	Progress io.Writer

	// KeepHistory retains every Result from every Sweep (in submission
	// order) for a combined report; see History.
	KeepHistory bool

	progMu  sync.Mutex
	history []Result
}

// History returns all results from all sweeps so far, in submission order.
// Only populated when KeepHistory is set.
func (r *Runner) History() []Result { return append([]Result(nil), r.history...) }

// Workers resolves the effective pool size.
func (r *Runner) Workers() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep runs every job and returns results in job order (index i of the
// returned slice is jobs[i]), regardless of completion order — so sweep
// output is deterministic at any parallelism. Failed jobs are returned,
// not dropped: check Result.OK.
func (r *Runner) Sweep(jobs []Job) []Result {
	if r.Run == nil {
		panic("harness: Runner.Run is nil")
	}
	results := make([]Result, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < r.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runJob(jobs[i])
				r.report(results[i], int(done.Add(1)), len(jobs))
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if r.KeepHistory {
		r.history = append(r.history, results...)
	}
	return results
}

// runJob executes one job with panic isolation.
func (r *Runner) runJob(j Job) Result {
	start := time.Now()
	res := Result{Job: j}
	res.Outcome, res.Err, res.Stack = safeRun(r.Run, j)
	res.WallNS = time.Since(start).Nanoseconds()
	return res
}

// safeRun calls run with panic isolation: a panicking simulation becomes a
// failed result carrying the stack, and the sweep continues.
func safeRun(run RunFunc, j Job) (out Outcome, errStr, stack string) {
	defer func() {
		if p := recover(); p != nil {
			out = Outcome{}
			errStr = fmt.Sprintf("panic: %v", p)
			stack = string(debug.Stack())
		}
	}()
	o, err := run(j)
	if err != nil {
		return Outcome{}, err.Error(), ""
	}
	return o, "", ""
}

// report writes one progress line per finished job.
func (r *Runner) report(res Result, done, total int) {
	if r.Progress == nil {
		return
	}
	status := fmt.Sprintf("cycles=%d commits=%d", res.Outcome.Cycles, res.Outcome.Commits)
	if res.OK() {
		status += fmt.Sprintf(" (%.2fs)", float64(res.WallNS)/1e9)
	} else {
		status = "FAILED: " + res.Err
	}
	r.progMu.Lock()
	fmt.Fprintf(r.Progress, "harness: [%d/%d] %s %s\n", done, total, res.Job, status)
	r.progMu.Unlock()
}

// Grid builds the full job list for workloads × variants × seeds in
// row-major order (workload outermost, seed innermost) — the canonical job
// order every emitter and aggregator assumes.
func Grid(workloads, variants []string, scale float64, seeds []int64) []Job {
	jobs := make([]Job, 0, len(workloads)*len(variants)*len(seeds))
	for _, w := range workloads {
		for _, v := range variants {
			for _, s := range seeds {
				jobs = append(jobs, Job{Workload: w, Variant: v, Scale: scale, Seed: s})
			}
		}
	}
	return jobs
}

// CodeVersion identifies the code that produced a result, for WriteJSON to
// stamp: the module's VCS revision when built with version control stamping,
// else "dev".
func CodeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "dev"
}
