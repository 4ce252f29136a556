package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tokentm"
	"tokentm/internal/harness"
)

// sim-sweep: host speed of the paper-reproduction simulator. One pass is a
// Runner.Sweep over 4 workloads x 3 HTM variants at scale 0.01 with one
// sweep worker, under GOMAXPROCS=1 (at 2 the scheduler's baton hand-off
// crosses Ps and a pass is 1.5x slower and 13x noisier on this host). An op
// is one committed simulated transaction; a request is one job.
//
// The simulator's seed perturbs backoffs and generator draws, and host time
// per committed transaction moves +-7% with it (55.1-63.8 us over six
// seeds on this host) — more than any bound in BENCHMARK.json. So the
// simulated inputs are a fixed pool of simSeeds perturbation seeds (the
// paper's error-bar runs), pass i runs pool seed (i + -seed) mod simSeeds,
// and -seed only chooses where the rotation starts: every run does the same
// simulated work up to the last partial rotation, and every pass can be
// checked against committed outcomes whatever the -seed.

var (
	simWorkloads = []string{"Cholesky", "Delaunay", "Vacation-High", "Genome"}
	simVariants  = []string{"TokenTM", "LogTM-SE_Perf", "LogTM-SE_4xH3"}
)

const (
	simScale    = 0.01
	simSeeds    = 4
	defaultSeed = 1
)

//go:embed testdata/sim_fingerprints.json
var testdata embed.FS

// fingerprint is a job's Outcome reduced to a hash of its canonical JSON
// (encoding/json sorts map keys), so "every pass equals the first" and
// "the default seed equals the committed outcomes" are string compares.
func fingerprint(o harness.Outcome) string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // Outcome is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// committedFingerprints loads testdata/sim_fingerprints.json: jobKey -> hash
// for every job of every pool seed.
func committedFingerprints() (map[string]string, error) {
	b, err := testdata.ReadFile("testdata/sim_fingerprints.json")
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("testdata/sim_fingerprints.json: %w", err)
	}
	return m, nil
}

// simPass is one sweep's measurements.
type simPass struct {
	results []harness.Result
	commits uint64
	failed  uint64 // jobs that were not OK()
}

type simBench struct {
	runner   *harness.Runner
	jobs     [simSeeds][]harness.Job // one grid per pool seed
	want     map[string]string       // committed fingerprints
	next     int                     // pool seed of the next pass
	rotation int                     // passes per window slice: simSeeds (1 in smoke runs)
	warm     time.Duration           // how long the warm-up rotation took
	tr       *tracer
	sweep    int32 // open Runner.Sweep span
	seq      uint64
}

func newSimBench(seed int64, tr *tracer) (*simBench, error) {
	b := &simBench{
		runner:   tokentm.NewRunner(tokentm.SweepOptions{Parallel: 1}),
		next:     int(uint64(seed) % simSeeds),
		rotation: simSeeds,
		tr:       tr,
	}
	for i := range b.jobs {
		b.jobs[i] = harness.Grid(simWorkloads, simVariants, simScale, []int64{int64(i + 1)})
	}
	var err error
	if b.want, err = committedFingerprints(); err != nil {
		return nil, err
	}
	if tr != nil {
		// One span per job, recorded around the call into the simulator.
		b.runner.Run = func(j harness.Job) (harness.Outcome, error) {
			b.seq++
			id := tr.begin("job "+jobKey(j), b.sweep, b.seq)
			o, err := tokentm.ExperimentRun(j)
			tr.end(id)
			return o, err
		}
	}
	return b, nil
}

// pass runs one sweep and checks every job: OK() (which already enforces
// cycle conservation and token bookkeeping) and outcome identity with the
// committed fingerprints — so also with every earlier pass on that seed.
func (b *simBench) pass(rep *report) simPass {
	jobs := b.jobs[b.next]
	b.next = (b.next + 1) % simSeeds
	if b.tr != nil {
		b.sweep = b.tr.begin("Runner.Sweep", -1, b.seq)
	}
	p := simPass{results: b.runner.Sweep(jobs)}
	if b.tr != nil {
		b.tr.end(b.sweep)
	}
	for _, r := range p.results {
		if !r.OK() {
			p.failed++
			rep.fail("job %s failed: %s", r.Job, r.Err)
		}
		p.commits += r.Outcome.Commits
		if got, want := fingerprint(r.Outcome), b.want[jobKey(r.Job)]; got != want {
			rep.fail("job %s: outcome %s differs from committed %q", r.Job, got, want)
		}
	}
	return p
}

func jobKey(j harness.Job) string {
	return fmt.Sprintf("%s/%s/seed%d", j.Workload, j.Variant, j.Seed)
}

func runSim(w workload, cfg runCfg) *report {
	rep := newReport(w, cfg)
	b, err := newSimBench(cfg.seed, nil)
	if err != nil {
		rep.fail("%v", err)
		return rep
	}
	b.rotation = w.simPasses
	// Fixed-count warm-up: one rotation, a pass per pool seed.
	t0 := time.Now()
	for i := 0; i < b.rotation; i++ {
		b.pass(rep)
	}
	b.warm = time.Since(t0)
	rep.SetupS = time.Since(cfg.start).Seconds()

	if !cfg.trace {
		_, res, err := b.window(rep, cfg.window)
		if err != nil {
			rep.fail("window: %v", err)
			return rep
		}
		rep.endToEnd(res)
		return rep
	}
	// Traced run: bare passes (the base of the overhead ratio and of every
	// host-time metric), then passes under the job-span RunFunc.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base, baseRes, err := b.window(rep, time.Duration(untracedShare*float64(cfg.window)))
	runtime.ReadMemStats(&ms1)
	if err != nil {
		rep.fail("window: %v", err)
		return rep
	}
	tb, err := newSimBench(cfg.seed, newTracer(cfg.start))
	if err != nil {
		rep.fail("%v", err)
		return rep
	}
	tb.rotation, tb.warm = b.rotation, b.warm
	_, tracedRes, err := tb.window(rep, time.Duration(tracedShare*float64(cfg.window)))
	if err != nil {
		rep.fail("window: %v", err)
		return rep
	}
	simLayers(rep, tb, base, baseRes, tracedRes, ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, cfg.keepSpans)
	return rep
}

// window repeats whole rotations of the seed pool for about d. A
// rotation is the window's slice: every rotation does the same simulated
// work, so the slices compare like with like.
func (b *simBench) window(rep *report, d time.Duration) ([]simPass, windowResult, error) {
	pid := os.Getpid()
	res := windowResult{p99Trusted: true}
	var err error
	if res.before, err = readProc(pid); err != nil {
		return nil, res, err
	}
	cpu0, err := cpuClock(pid)
	if err != nil {
		return nil, res, err
	}
	var passes []simPass
	var lat []uint32
	start := time.Now()
	// Whole rotations only: as many as fit d, going by the warm-up's pace.
	for n := max(int(float64(d)/float64(b.warm)+0.5), 1); n > 0; n-- {
		t0 := time.Now()
		var commits uint64
		lat = lat[:0]
		for i := 0; i < b.rotation; i++ {
			p := b.pass(rep)
			passes = append(passes, p)
			commits += p.commits
			res.failed += p.failed
			for _, r := range p.results {
				lat = append(lat, uint32(min(r.WallNS, 1<<32-1)))
			}
		}
		dur := time.Since(t0)
		cpu1, err := cpuClock(pid)
		if err != nil {
			return nil, res, err
		}
		res.series.OpsPerSec = append(res.series.OpsPerSec, float64(commits)/dur.Seconds())
		res.series.CPUPerOpNS = append(res.series.CPUPerOpNS, float64(cpu1-cpu0)/float64(commits))
		cpu0 = cpu1
		res.samples += len(lat)
		res.p99Trusted = res.series.latencies(lat) && res.p99Trusted
		res.ops += commits
	}
	res.elapsed = time.Since(start)
	if res.after, err = readProc(pid); err != nil {
		return nil, res, err
	}
	res.attempted = uint64(len(passes) * len(b.jobs[0]))
	return passes, res, nil
}
