package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tokentm/stm"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one worker process prints as its last stdout line and what
// the orchestrator merges into the run's result.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Correct     bool              `json:"correct"`
	Errors      []string          `json:"errors,omitempty"`
	Attempted   uint64            `json:"attempted"`
	Failed      uint64            `json:"failed"`
	SetupS      float64           `json:"setup_s"`
	WindowS     float64           `json:"window_s"`
	Samples     int               `json:"latency_samples"`
	P99us       float64           `json:"p99_us"`
	P99Trusted  bool              `json:"p99_trusted"`
	Series      sliceSeries       `json:"series"`
	Metrics     map[string]metric `json:"metrics"`
	Unexercised []string          `json:"unexercised,omitempty"` // per-layer metrics zero-filled
	Notes       []string          `json:"notes,omitempty"`
	Host        hostInfo          `json:"host"`
	Spans       [][]span          `json:"spans,omitempty"`
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runCfg is one worker invocation.
type runCfg struct {
	seed      int64
	window    time.Duration
	trace     bool
	smoke     bool
	keepSpans bool
	start     time.Time // worker process start: setup_s counts from here
}

func newReport(w workload, cfg runCfg) *report {
	return &report{
		Workload: w.name, Seed: cfg.seed, Correct: true,
		Metrics: make(map[string]metric),
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPUModel: cpuModel(),
		},
	}
}

// client issues requests of one cyclic stream; one per closed-loop worker.
type client interface {
	// do issues request i and returns the ops it completed.
	do(i int) int
	// counts reports ops attempted and failed so far.
	counts() (attempted, failed uint64)
}

// loop drives one client through its stream: a fixed request count for
// warm-up, then a wall-clock window. Latency is sampled per request — a
// fixed group of ops — never per sub-100 ns op, and only every n-th request
// pays the two clock reads.
type loop struct {
	c   client
	n   int // requests in the stream
	pos int
	ops atomic.Uint64 // completed in this window; the window's sampler reads it while the loop runs
	lat []uint32      // ns per sampled request
	cut []int         // len(lat) at each slice boundary
}

func (l *loop) next() int {
	i := l.pos
	if l.pos++; l.pos == l.n {
		l.pos = 0
	}
	return i
}

func (l *loop) replay(reqs int) {
	for ; reqs > 0; reqs-- {
		l.c.do(l.next())
	}
}

// runSlices runs until `slices` slice boundaries have passed.
func (l *loop) runSlices(start time.Time, sliceLen time.Duration, slices, every int) {
	cut := start.Add(sliceLen)
	for {
		for j := 1; j < every; j++ {
			l.ops.Add(uint64(l.c.do(l.next())))
		}
		t0 := time.Now()
		n := l.c.do(l.next())
		t1 := time.Now()
		l.ops.Add(uint64(n))
		l.lat = append(l.lat, uint32(min(t1.Sub(t0), 1<<32-1)))
		if !t1.Before(cut) {
			l.cut = append(l.cut, len(l.lat))
			if len(l.cut) == slices {
				return
			}
			cut = cut.Add(sliceLen)
		}
	}
}

// sut is the process hosting the system under test, as the window sees it.
type sut interface {
	proc() (procSample, error)
	cpu() (time.Duration, error) // user+sys so far, at the scheduler's resolution
	stmStats() (stm.Stats, error)
}

// A window is cut into slices of about 100 ms. Throughput, CPU per op and
// the latency percentiles are each computed per slice, the slices of all of
// a run's rounds are pooled, and the run reports the value a twentieth of
// the way in from the good end (high for throughput, low for costs). On a
// shared VM disturbances only ever subtract, they come in bursts of
// milliseconds to minutes, and they hit most slices of a bad minute: over
// ten runs of wire-multi in such weather the interquartile spread of
// ops_per_s between runs was 16% reading the slices' median, 12% their
// good-side quartile and 8% the good twentieth, while a real regression,
// which slows every slice, moves all of them in full. The twentieth rather
// than the single best slice keeps one freak slice (a sampler descheduled
// between its two reads) out of the result.
const (
	sliceTarget = 100 * time.Millisecond
	goodShare   = 0.05
)

// sliceSeries are a window's per-slice readings, in no particular order. A
// worker reports them so that the orchestrator can pool its rounds.
type sliceSeries struct {
	OpsPerSec  []float64 `json:"ops_per_s"`
	CPUPerOpNS []float64 `json:"cpu_ns_per_op"`
	P50NS      []float64 `json:"p50_ns"`
	P99NS      []float64 `json:"p99_ns"`
}

func (s *sliceSeries) append(o sliceSeries) {
	s.OpsPerSec = append(s.OpsPerSec, o.OpsPerSec...)
	s.CPUPerOpNS = append(s.CPUPerOpNS, o.CPUPerOpNS...)
	s.P50NS = append(s.P50NS, o.P50NS...)
	s.P99NS = append(s.P99NS, o.P99NS...)
}

// latencies adds one slice's latency percentiles; lat is sorted in place.
// It reports whether the slice's p99 had enough samples beyond it.
func (s *sliceSeries) latencies(lat []uint32) bool {
	if len(lat) == 0 { // a stall swallowed the whole slice
		return true
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	p50, _ := percentile(lat, 50)
	p99, ok := percentile(lat, 99)
	s.P50NS = append(s.P50NS, p50)
	s.P99NS = append(s.P99NS, p99)
	return ok
}

// windowResult is one measured window.
type windowResult struct {
	elapsed    time.Duration
	ops        uint64
	attempted  uint64
	failed     uint64
	before     procSample
	after      procSample
	stmDelta   stm.Stats
	series     sliceSeries
	samples    int  // latency samples in the window
	p99Trusted bool // every slice had >= minTailSamples beyond its p99
}

// reading is the sampler's view at one slice boundary: what the loops have
// completed and what the system under test has spent.
type reading struct {
	t   time.Time
	ops uint64
	cpu time.Duration
}

func read(loops []*loop, s sut) (reading, error) {
	var r reading
	for _, l := range loops {
		r.ops += l.ops.Load()
	}
	r.t = time.Now()
	var err error
	r.cpu, err = s.cpu()
	return r, err
}

// runWindow releases every loop at once, lets each run for d, and brackets
// the window — and each slice — with readings of the system under test.
func runWindow(loops []*loop, d time.Duration, w workload, s sut) (windowResult, error) {
	n := max(int(d/sliceTarget), 1)
	sliceLen := d / time.Duration(n)
	res := windowResult{p99Trusted: true}
	var attempted0, failed0 uint64
	for _, l := range loops {
		a, f := l.c.counts()
		attempted0 += a
		failed0 += f
		l.ops.Store(0)
		l.cut = make([]int, 0, n)
		// Sized above the workload's request rate so the window never
		// pays for a growing slice.
		l.lat = make([]uint32, 0, int(d.Seconds()*float64(w.maxReqRate)/float64(w.sampleEvery))+1024)
	}
	st0, err := s.stmStats()
	if err != nil {
		return res, err
	}
	if res.before, err = s.proc(); err != nil {
		return res, err
	}
	readings := make([]reading, 1, n+1)
	if readings[0], err = read(loops, s); err != nil {
		return res, err
	}
	var wg sync.WaitGroup
	start := readings[0].t
	for _, l := range loops {
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			l.runSlices(start, sliceLen, n, w.sampleEvery)
		}(l)
	}
	for i := 1; i < n && err == nil; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * sliceLen)))
		var r reading
		r, err = read(loops, s)
		readings = append(readings, r)
	}
	wg.Wait()
	if err != nil {
		return res, err
	}
	last, err := read(loops, s)
	if err != nil {
		return res, err
	}
	readings = append(readings, last)
	res.elapsed, res.ops = last.t.Sub(start), last.ops
	if res.after, err = s.proc(); err != nil {
		return res, err
	}
	st1, err := s.stmStats()
	if err != nil {
		return res, err
	}
	res.stmDelta = subStats(st1, st0)

	for i := 1; i < len(readings); i++ {
		a, b := readings[i-1], readings[i]
		if ops := b.ops - a.ops; ops > 0 {
			res.series.OpsPerSec = append(res.series.OpsPerSec, float64(ops)/b.t.Sub(a.t).Seconds())
			res.series.CPUPerOpNS = append(res.series.CPUPerOpNS, float64(b.cpu-a.cpu)/float64(ops))
		}
	}
	var lat []uint32
	for i := 0; i < n; i++ {
		lat = lat[:0]
		for _, l := range loops {
			lo := 0
			if i > 0 {
				lo = l.cut[i-1]
			}
			lat = append(lat, l.lat[lo:l.cut[i]]...)
		}
		res.samples += len(lat)
		res.p99Trusted = res.series.latencies(lat) && res.p99Trusted
	}
	for _, l := range loops {
		a, f := l.c.counts()
		res.attempted += a
		res.failed += f
	}
	res.attempted -= attempted0
	res.failed -= failed0
	return res, nil
}

func subStats(a, b stm.Stats) stm.Stats {
	return stm.Stats{
		Commits: a.Commits - b.Commits, Aborts: a.Aborts - b.Aborts,
		Upgrades: a.Upgrades - b.Upgrades, FastReleases: a.FastReleases - b.FastReleases,
		SlowReleases: a.SlowReleases - b.SlowReleases, ConflictWriter: a.ConflictWriter - b.ConflictWriter,
		ConflictReader: a.ConflictReader - b.ConflictReader, ConflictAnon: a.ConflictAnon - b.ConflictAnon,
		ConflictAborts: a.ConflictAborts - b.ConflictAborts, DoomedAborts: a.DoomedAborts - b.DoomedAborts,
		Dooms: a.Dooms - b.Dooms, SnapshotCommits: a.SnapshotCommits - b.SnapshotCommits,
		SnapshotRetries: a.SnapshotRetries - b.SnapshotRetries,
	}
}

// windowStats are the good-end readings of a pool of slices.
type windowStats struct {
	opsPerSec  float64
	cpuPerOpNS float64
	p50us      float64
	p99us      float64
}

// good returns the value goodShare of the way in from the good end of xs:
// the high end when higher is better, else the low end.
func good(xs []float64, higher bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	at := goodShare * float64(len(s)-1)
	if higher {
		at = float64(len(s)-1) - at
	}
	i := int(at)
	if i == len(s)-1 {
		return s[i]
	}
	return s[i] + (at-float64(i))*(s[i+1]-s[i])
}

func (s sliceSeries) stats() windowStats {
	return windowStats{
		opsPerSec:  good(s.OpsPerSec, true),
		cpuPerOpNS: good(s.CPUPerOpNS, false),
		p50us:      good(s.P50NS, false) / 1e3,
		p99us:      good(s.P99NS, false) / 1e3,
	}
}

func (res windowResult) stats() windowStats { return res.series.stats() }

// meanCPUPerOpNS is the window's CPU time over its ops: what the ladder's
// rungs, which are means too, are summed against.
func (res windowResult) meanCPUPerOpNS() float64 {
	return float64(res.after.User+res.after.Sys-res.before.User-res.before.Sys) / float64(res.ops)
}

// endToEnd fills the end-to-end metrics from a window.
func (r *report) endToEnd(res windowResult) {
	r.Attempted, r.Failed = res.attempted, res.failed
	r.WindowS = res.elapsed.Seconds()
	r.Samples, r.P99Trusted = res.samples, res.p99Trusted
	r.Series = res.series
	r.set("setup_s", r.SetupS, "s")
	r.set("mem_mb", float64(res.after.HWMkB)/1024, "MB")
	r.setSeriesMetrics()
	if res.failed != 0 {
		r.fail("%d of %d ops failed", res.failed, res.attempted)
	}
	if st := res.stmDelta; st.Commits > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("stm: %d commits, %d aborts (%.2f%% of attempts), %d upgrades",
			st.Commits, st.Aborts, 100*st.AbortRate(), st.Upgrades))
	}
}

// setSeriesMetrics sets the end-to-end metrics that are read off the pooled
// slices, plus p99_us, which suite mode prints beside them (the acceptance
// driver gets it with the per-layer metrics: see README, "Why p99_us is not
// gated").
func (r *report) setSeriesMetrics() {
	st := r.Series.stats()
	r.set("ops_per_s", st.opsPerSec, "1/s")
	r.set("p50_us", st.p50us, "us")
	r.set("cpu_us_per_op", st.cpuPerOpNS/1e3, "us")
	r.P99us = st.p99us
}
