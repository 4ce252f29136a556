// Command tokentm-bench is the repository's one benchmark: five long, pinned
// workloads, five bounded end-to-end metrics each (and p99_us, reported but
// not bounded), correctness checks inside the same command, and a separate traced pass (-layers, or -trace 1) that produces
// the per-layer numbers and a span file. README.md in this directory says
// what every workload isolates and why every noise rule exists;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	go run ./cmd/tokentm-bench -seed 1              # all five workloads
//	go run ./cmd/tokentm-bench -layers              # ... plus the layer ladder and spans
//	go run ./cmd/tokentm-bench -repeat 5            # spread table, gated on the bounds
//	go run ./cmd/tokentm-bench -workload sim-sweep -seed 3 -seconds 20 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// e2eMetric is one end-to-end metric and the share of the parent's median by
// which it may worsen before a change counts as a regression. BENCHMARK.json
// carries the same table (a test keeps the two equal). The bounds are sized
// from BASELINE.md: each is at least 2.5x the widest interquartile spread
// that metric showed on any workload over ten runs of unchanged code on the
// recorded host (the contract caps a bound at 0.25), because a bound inside
// the host's own weather rejects innocent changes. No bound exceeds
// setup_s's. p99_us is reported but not
// bounded: it is one of the per-layer metrics (see layers.go).
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.10},
}

// rounds is how many worker processes an untraced run uses, one after the
// other: each sets the workload up from scratch and measures a third of the
// window. Set-up has to be repeated anyway for setup_s to be a median;
// measuring in each round also takes one process's luck with memory
// placement (several percent on a keyspace beyond the L2) out of the result.
const rounds = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	layers   bool
	repeat   int
	smoke    bool
	out      string
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the result as one JSON line (default: all five, as a table)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "op-stream seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds (default: each workload's own window)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.layers, "layers", false, "after the end-to-end pass, run the traced pass: per-layer metrics, layer ladder, span file")
	flag.IntVar(&o.repeat, "repeat", 0, "run the suite N times (seed, seed+1, ...) and print median, quartiles and spread per workload x metric; exit 1 if a spread exceeds its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "sub-second windows and a tiny keyspace with every check on (what go test runs)")
	flag.StringVar(&o.out, "out", "", "span file to write after a traced pass (default with -layers: tokentm-bench-spans.json)")
	role := flag.String("role", "", "internal: worker or server")
	shards := flag.Int("shards", 4, "internal (-role server): shard count")
	capacity := flag.Int("capacity", 1<<16, "internal (-role server): slot capacity")
	keepSpans := flag.Bool("spans", false, "internal (-role worker): include spans in the report")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tokentm-bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	switch *role {
	case "server":
		os.Exit(serverMain(*shards, *capacity))
	case "worker":
		os.Exit(workerMain(o, *keepSpans, start))
	case "":
	default:
		fmt.Fprintf(os.Stderr, "tokentm-bench: unknown role %q\n", *role)
		os.Exit(2)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "tokentm-bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	var err error
	switch {
	case o.workload != "":
		err = contractMain(o)
	case o.repeat > 0:
		err = repeatMain(o)
	default:
		err = suiteMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-bench:", err)
		os.Exit(1)
	}
}

// workerMain is -role worker: run one workload in this process and print the
// report as the last stdout line. The worker dies with
// its parent: stdin is a pipe the orchestrator holds open.
func workerMain(o options, keepSpans bool, start time.Time) int {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(3) // orchestrator is gone; our server child follows through its own stdin
	}()
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-bench worker:", err)
		return 2
	}
	if o.smoke {
		w = w.smoke()
	}
	cfg := runCfg{
		seed: o.seed, window: time.Duration(o.seconds * float64(time.Second)),
		trace: o.trace == 1, smoke: o.smoke, keepSpans: keepSpans, start: start,
	}
	var rep *report
	switch w.kind {
	case kindWire:
		rep = runWire(w, cfg)
	case kindInproc:
		rep = runInproc(w, cfg)
	default:
		rep = runSim(w, cfg)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-bench worker:", err)
		return 1
	}
	return 0
}

// spawnWorker runs one worker process with GOMAXPROCS pinned and returns its
// report. The child is killed if it outlives its window by two minutes or
// if this process fails first.
func spawnWorker(w workload, o options, window float64, trace int, spans bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(window*float64(time.Second))+2*time.Minute)
	defer cancel()
	args := []string{"-role", "worker", "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(window, 'g', -1, 64),
		"-trace", strconv.Itoa(trace)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if spans {
		args = append(args, "-spans")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.gomaxprocs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe() // held open: its EOF tells the worker we died
	if err != nil {
		return nil, err
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last []byte
	rd := bufio.NewReaderSize(stdout, 1<<20)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 1 {
			last = line
		}
		if err != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s worker: %w", w.name, err)
	}
	rep := new(report)
	if err := json.Unmarshal(last, rep); err != nil {
		return nil, fmt.Errorf("%s worker: unreadable report: %w", w.name, err)
	}
	return rep, nil
}

// window resolves the measured window for w.
func (o options) window(w workload) float64 {
	switch {
	case o.seconds > 0:
		return o.seconds
	case o.smoke:
		return 0.3
	}
	return w.window.Seconds()
}

// runOne runs w once. Untraced: `rounds` worker processes, each measuring
// its share of the window; every metric is their median. Traced: one
// process, per-layer metrics.
func runOne(w workload, o options, trace int) (*report, error) {
	win := o.window(w)
	if trace == 1 {
		return spawnWorker(w, o, win, 1, o.out != "")
	}
	var reps []*report
	for i := 0; i < rounds; i++ {
		rep, err := spawnWorker(w, o, win/rounds, 0, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return mergeRounds(reps), nil
}

// mergeRounds folds the rounds of one run: set-up time and memory by median,
// counts by sum, everything read off slices from the pool of all rounds'
// slices, and the run is correct only if every round was.
func mergeRounds(reps []*report) *report {
	out := *reps[len(reps)-1]
	out.Metrics = make(map[string]metric)
	out.Attempted, out.Failed, out.WindowS, out.Samples = 0, 0, 0, 0
	out.Errors = nil
	out.Series = sliceSeries{}
	for _, r := range reps {
		out.Correct = out.Correct && r.Correct
		out.P99Trusted = out.P99Trusted && r.P99Trusted
		out.Errors = append(out.Errors, r.Errors...)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.WindowS += r.WindowS
		out.Samples += r.Samples
		out.Series.append(r.Series)
	}
	for name, m := range reps[0].Metrics {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.Metrics[name].Value
		}
		out.Metrics[name] = metric{Value: median(vals), Unit: m.Unit}
	}
	out.setSeriesMetrics()
	return &out
}

// contractMain is the -workload mode: one workload, result as the last
// stdout line in the shape BENCHMARK.json's consumers read.
func contractMain(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	rep, err := runOne(w, o, o.trace)
	if err != nil {
		return err
	}
	printReport(os.Stderr, rep)
	if o.out != "" && o.trace == 1 {
		if err := writeSpanFile(o.out, spanFile{Workloads: []spanSection{{Workload: w.name, Tracers: rep.Spans}}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: correctness checks failed", w.name)
	}
	return nil
}

// printReport lists a report's metrics by name with units, then any failed
// checks and notes.
func printReport(out io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, e2e := rep.Metrics["ops_per_s"]; e2e { // end-to-end metrics print in their declared order
		names = names[:0]
		for _, m := range endToEndMetrics {
			names = append(names, m.name)
		}
	}
	skip := make(map[string]bool)
	for _, n := range rep.Unexercised {
		skip[n] = true
	}
	for _, n := range names {
		if m := rep.Metrics[n]; !skip[n] {
			fmt.Fprintf(out, "%-16s %-34s %16.4f %s\n", rep.Workload, n, m.Value, m.Unit)
		}
	}
	if _, e2e := rep.Metrics["ops_per_s"]; e2e {
		fmt.Fprintf(out, "%-16s %-34s %16.4f us (not gated: reported with the per-layer metrics)\n", rep.Workload, "p99_us", rep.P99us)
	}
	if len(skip) > 0 {
		fmt.Fprintf(out, "%-16s %d per-layer metrics belong to layers this workload does not exercise (reported as 0)\n", rep.Workload, len(skip))
	}
	status := "ok"
	if !rep.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(out, "%-16s checks %s; %d attempted, %d failed; window %.2fs", rep.Workload, status, rep.Attempted, rep.Failed, rep.WindowS)
	if rep.Samples > 0 {
		fmt.Fprintf(out, "; %d latency samples", rep.Samples)
		if !rep.P99Trusted {
			fmt.Fprintf(out, " (a slice has fewer than %d beyond its p99)", minTailSamples)
		}
	}
	fmt.Fprintln(out)
	for _, e := range rep.Errors {
		fmt.Fprintf(out, "%-16s CHECK FAILED: %s\n", rep.Workload, e)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "%-16s note: %s\n", rep.Workload, n)
	}
}

func printHost(out io.Writer, h hostInfo) {
	fmt.Fprintf(out, "host: num_cpu=%d go=%s %s/%s cpu=%q (GOMAXPROCS is pinned per workload: 1 for sim-sweep, 2 otherwise)\n",
		h.NumCPU, h.GoVersion, runtime.GOOS, runtime.GOARCH, h.CPUModel)
}

// suiteMain runs all five workloads once and prints every metric.
func suiteMain(o options) error {
	if o.layers && o.out == "" {
		o.out = "tokentm-bench-spans.json"
	}
	var spans spanFile
	var failed []string
	for i, w := range workloads {
		rep, err := runOne(w, o, 0)
		if err != nil {
			return err
		}
		if i == 0 {
			printHost(os.Stdout, rep.Host)
		}
		printReport(os.Stdout, rep)
		if !rep.Correct {
			failed = append(failed, w.name)
		}
		if !o.layers {
			continue
		}
		lay, err := runOne(w, o, 1)
		if err != nil {
			return err
		}
		printReport(os.Stdout, lay)
		if !lay.Correct {
			failed = append(failed, w.name+" (traced)")
		}
		spans.Workloads = append(spans.Workloads, spanSection{Workload: w.name, Tracers: lay.Spans})
	}
	if o.layers {
		if err := writeSpanFile(o.out, spans); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", o.out)
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// repeatMain runs the suite N times on consecutive seeds and prints, per
// workload x metric, the median, the quartiles and the spreads. It gates on
// the same statistic the acceptance driver uses — (Q3-Q1)/median against the
// metric's bound, setup_s excepted — and also prints (max-min)/median.
func repeatMain(o options) error {
	values := make(map[string]map[string][]float64) // workload -> metric -> runs
	var host hostInfo
	for i := 0; i < o.repeat; i++ {
		oi := o
		oi.seed = o.seed + int64(i)
		for _, w := range workloads {
			rep, err := runOne(w, oi, 0)
			if err != nil {
				return err
			}
			if !rep.Correct {
				printReport(os.Stderr, rep)
				return fmt.Errorf("%s: correctness checks failed on seed %d", w.name, oi.seed)
			}
			host = rep.Host
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, m := range rep.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			values[w.name]["p99_us"] = append(values[w.name]["p99_us"], rep.P99us)
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, o.repeat, w.name)
		}
	}
	printHost(os.Stdout, host)
	fmt.Printf("%d runs per workload, seeds %d..%d\n\n", o.repeat, o.seed, o.seed+int64(o.repeat)-1)
	fmt.Println("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|")
	var over []string
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			s := newSpread(values[w.name][m.name])
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.4f | %.2f%% | %.2f%% | %.0f%% |\n",
				w.name, m.name, m.unit, s.Median, s.Q1, s.Q3, 100*s.IQR(), 100*s.Range(), 100*m.bound)
			if m.name != "setup_s" && s.IQR() > m.bound {
				over = append(over, fmt.Sprintf("%s %s %.2f%% > %.0f%%", w.name, m.name, 100*s.IQR(), 100*m.bound))
			}
		}
		s := newSpread(values[w.name]["p99_us"])
		fmt.Printf("| %s | p99_us | us | %.4f | %.4f | %.4f | %.2f%% | %.2f%% | not gated |\n",
			w.name, s.Median, s.Q1, s.Q3, 100*s.IQR(), 100*s.Range())
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds bound: %s", strings.Join(over, "; "))
	}
	return nil
}
