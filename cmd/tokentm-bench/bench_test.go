package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"tokentm"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_fingerprints.json from this build's simulator")

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		if w.kind == kindSim {
			continue
		}
		w = w.smoke()
		a := newStream(w, 7, 0, w.streamReqs)
		b := newStream(w, 7, 0, w.streamReqs)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed and role gave different streams", w.name)
		}
		if w.kind == kindWire && len(a.wire) == 0 {
			t.Errorf("%s: wire workload has no pre-encoded requests", w.name)
		}
		for what, c := range map[string]*stream{
			"seed": newStream(w, 8, 0, w.streamReqs),
			"role": newStream(w, 7, 1, w.streamReqs),
		} {
			if reflect.DeepEqual(a.ops, c.ops) && reflect.DeepEqual(a.keys, c.keys) {
				t.Errorf("%s: a different %s gave the same ops", w.name, what)
			}
			if w.kind == kindWire && bytes.Equal(a.wire, c.wire) {
				t.Errorf("%s: a different %s gave the same request bytes", w.name, what)
			}
		}
	}
}

func TestStreamShapes(t *testing.T) {
	for _, w := range workloads {
		if w.shape != shapeMulti && w.shape != shapeLarge {
			continue
		}
		w = w.smoke()
		s := newStream(w, 3, 0, w.streamReqs)
		for i := 0; i < s.n; i++ {
			ks := s.keys[i*w.reads : (i+1)*w.reads]
			seen := make(map[uint32]bool)
			for j, k := range ks {
				if k == 0 || int(k) > w.keys || seen[k] {
					t.Fatalf("%s: request %d key %d: %d is zero, out of range or repeated", w.name, i, j, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	mk := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(i + 1)
		}
		return s
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported a trusted percentile")
	}
	// Nearest rank: the p-th percentile of 1..n is ceil(p*n/100).
	for _, c := range []struct {
		n       int
		p       float64
		want    float64
		trusted bool
	}{
		{100, 50, 50, true},
		{100, 99, 99, false},   // 1 sample beyond p99
		{999, 99, 990, false},  // 9 beyond
		{1000, 99, 990, true},  // exactly 10 beyond: the >=1000-sample rule
		{1001, 99, 991, true},  // ceil(990.99)
		{20, 50, 10, true},     // exactly 10 beyond p50
		{19, 50, 10, false},    // 9 beyond
		{5000, 99, 4950, true}, // 50 beyond
	} {
		got, ok := percentile(mk(c.n), c.p)
		if got != c.want || ok != c.trusted {
			t.Errorf("percentile(1..%d, %g) = %g trusted=%v, want %g trusted=%v", c.n, c.p, got, ok, c.want, c.trusted)
		}
	}
}

// TestSliceStats checks the good-end reading of a pool of slices:
// throughput reads goodShare of the way in from the top, costs from the
// bottom, and p99 is trusted only when every slice has enough samples
// beyond it.
func TestSliceStats(t *testing.T) {
	var s sliceSeries
	trusted := true
	for i := 21; i >= 1; i-- { // slice i: i*1000 ops/s, i*100 ns per op, latencies 1..1000*i ns
		s.OpsPerSec = append(s.OpsPerSec, float64(1000*i))
		s.CPUPerOpNS = append(s.CPUPerOpNS, float64(100*i))
		lat := make([]uint32, 1000*i)
		for j := range lat {
			lat[j] = uint32(len(lat) - j) // unsorted on purpose
		}
		trusted = s.latencies(lat) && trusted
	}
	// goodShare (1/20) of the way into 21 values is exactly the second best.
	if st := s.stats(); st.opsPerSec != 20000 || st.cpuPerOpNS != 200 || st.p50us != 1 || st.p99us != 1.98 {
		t.Errorf("stats = %+v; want ops 20000, cpu 200 ns, p50 1 us, p99 1.98 us", st)
	}
	if !trusted {
		t.Error("p99 untrusted although every slice has >= 1000 samples")
	}
	if s.latencies(make([]uint32, 999)) {
		t.Error("p99 trusted with a 999-sample slice")
	}
	// A slice a stall swallowed whole adds nothing.
	n := len(s.P50NS)
	if !s.latencies(nil) || len(s.P50NS) != n {
		t.Error("an empty slice changed the series")
	}
	// Between two slices the reading is interpolated.
	if got := good([]float64{10, 20}, false); math.Abs(got-10.5) > 1e-12 {
		t.Errorf("good([10 20], lower) = %g, want 10.5", got)
	}
	if got := good([]float64{10, 20}, true); math.Abs(got-19.5) > 1e-12 {
		t.Errorf("good([10 20], higher) = %g, want 19.5", got)
	}
}

// TestMergeRounds checks that a run pools its rounds' slices (it does not
// take the median of the rounds' own readings) while set-up time and memory
// are medians.
func TestMergeRounds(t *testing.T) {
	round := func(setup, mem float64, ops ...float64) *report {
		r := &report{Correct: true, P99Trusted: true, Attempted: 10, Metrics: make(map[string]metric)}
		r.Series = sliceSeries{OpsPerSec: ops, CPUPerOpNS: []float64{1000 * setup}, P50NS: []float64{2000 * setup}, P99NS: []float64{3000 * setup}}
		r.set("setup_s", setup, "s")
		r.set("mem_mb", mem, "MB")
		r.setSeriesMetrics()
		return r
	}
	out := mergeRounds([]*report{round(3, 10, 100, 110), round(1, 30, 500), round(2, 20, 90, 95)})
	if got := out.Metrics["setup_s"].Value; got != 2 {
		t.Errorf("setup_s = %g, want the median 2", got)
	}
	if got := out.Metrics["mem_mb"].Value; got != 20 {
		t.Errorf("mem_mb = %g, want the median 20", got)
	}
	if got, want := out.Metrics["ops_per_s"].Value, good([]float64{100, 110, 500, 90, 95}, true); got != want {
		t.Errorf("ops_per_s = %g, want %g from the pool", got, want)
	}
	if got, want := out.Metrics["cpu_us_per_op"].Value, good([]float64{3, 1, 2}, false); got != want {
		t.Errorf("cpu_us_per_op = %g, want %g from the pool", got, want)
	}
	if out.Attempted != 30 || !out.Correct || len(out.Metrics) != len(endToEndMetrics) {
		t.Errorf("attempted=%d correct=%v metrics=%d", out.Attempted, out.Correct, len(out.Metrics))
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the statistic the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	s := newSpread([]float64{98, 100, 102, 104, 96})
	if s.Median != 100 || math.Abs(s.Range()-0.08) > 1e-12 || math.Abs(s.IQR()-0.06) > 1e-12 {
		t.Errorf("spread = %+v iqr %g range %g", s, s.IQR(), s.Range())
	}
}

func TestProcParsers(t *testing.T) {
	// A comm with spaces and a ')' in it: fields must count from the last ')'.
	stat := "4242 (tokentm bench) x) S 1 4242 4242 0 -1 4194560 917 0 0 0 1234 567 0 0 20 0 9 0 5550123 1280000000 3100 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	user, sys, err := parseStat(stat)
	if err != nil || user != 12340*time.Millisecond || sys != 5670*time.Millisecond {
		t.Errorf("parseStat = %v, %v, %v; want 12.34s, 5.67s", user, sys, err)
	}
	if _, _, err := parseStat("no comm here 1 2 3"); err == nil {
		t.Error("parseStat accepted text without a comm field")
	}
	if _, _, err := parseStat("1 (x) S 1 2"); err == nil {
		t.Error("parseStat accepted a truncated line")
	}
	status := "Name:\ttokentm-bench\nVmPeak:\t 1301232 kB\nVmHWM:\t   52276 kB\nVmRSS:\t   40000 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t8841\nnonvoluntary_ctxt_switches:\t12\n"
	if v, err := parseStatusField(status, "VmHWM"); err != nil || v != 52276 {
		t.Errorf("VmHWM = %d, %v; want 52276", v, err)
	}
	if v, err := parseStatusField(status, "voluntary_ctxt_switches"); err != nil || v != 8841 {
		t.Errorf("voluntary_ctxt_switches = %d, %v; want 8841 (not the nonvoluntary line)", v, err)
	}
	if _, err := parseStatusField(status, "VmSwap"); err == nil {
		t.Error("parseStatusField found a line that is not there")
	}
	// And the live files of this process parse.
	s, err := readProc(os.Getpid())
	if err != nil || s.HWMkB == 0 {
		t.Errorf("readProc(self) = %+v, %v", s, err)
	}
	// The CPU clock is the same user+sys sum at a finer grain: it can only
	// have moved on since, and by little.
	c, err := cpuClock(os.Getpid())
	if d := c - (s.User + s.Sys); err != nil || d < -10*time.Millisecond || d > time.Second {
		t.Errorf("cpuClock(self) = %v, %v; /proc says %v", c, err, s.User+s.Sys)
	}
	if _, err := cpuClock(1<<22 + 1); err == nil { // above the kernel's largest pid
		t.Error("cpuClock of a pid that cannot exist succeeded")
	}
}

func TestParseInfo(t *testing.T) {
	text := "shards:4\ncommits:10\naborts:1\nstm_commits:40\nstm_aborts:3\nstm_upgrades:7\nstm_fast_releases:30\nstm_slow_releases:10\n" +
		"stm_conflict_writer:2\nstm_conflict_reader:1\nstm_conflict_anon:0\nstm_conflict_aborts:1\nstm_doomed_aborts:2\nstm_dooms:2\n" +
		"stm_snapshot_commits:0\nstm_snapshot_retries:5\nshard0_serial:9\n"
	st, err := parseInfo(text)
	if err != nil || st.Commits != 40 || st.Aborts != 3 || st.Upgrades != 7 || st.SlowReleases != 10 || st.SnapshotRetries != 5 {
		t.Errorf("parseInfo = %+v, %v", st, err)
	}
	if _, err := parseInfo("stm_commits:1\n"); err == nil {
		t.Error("parseInfo accepted a payload missing counters")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// request [0,100] -> write [5,15], parse [15,95] -> wait [20,60], wait [70,80]
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "client.write", Start: 5, End: 15, Parent: 0, Req: 1},
		{Name: "client.parse", Start: 15, End: 95, Parent: 0, Req: 1},
		{Name: "client.wait", Start: 20, End: 60, Parent: 2, Req: 1},
		{Name: "client.wait", Start: 70, End: 80, Parent: 2, Req: 1},
	}
	st := spanStats(spans)
	check := func(name string, count int, total, self int64) {
		t.Helper()
		s := st[name]
		if s == nil || s.Count != count || s.Total != total || s.Self != self {
			t.Errorf("%s = %+v; want count %d total %d self %d", name, s, count, total, self)
		}
	}
	check("request", 1, 100, 10)     // 100 - (10 + 80)
	check("client.write", 1, 10, 10) // leaf
	check("client.parse", 1, 80, 30) // 80 - (40 + 10)
	check("client.wait", 2, 50, 50)
	if p := st["client.parse"]; p.Begin != 5 || p.Finish != 15 || p.Kids != 2 {
		t.Errorf("client.parse begin/finish/kids = %d/%d/%d; want 5/15/2", p.Begin, p.Finish, p.Kids)
	}

	// An aborted attempt's children are dropped; the committed attempt's stay.
	tr := newTracer(time.Now())
	root := tr.begin("kvstore.Handle.Txn", -1, 1)
	tr.end(tr.begin("tx.Get", root, 1))
	tr.truncate(int(root) + 1)
	tr.end(tr.begin("tx.Put", root, 1))
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Name != "tx.Put" {
		t.Errorf("after truncate: %+v", tr.spans)
	}
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []docWorkload  `json:"workloads"`
	EndToEnd   []docEndToEnd  `json:"end_to_end"`
	PerLayer   []docLayerStat `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type docLayerStat struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is BENCHMARK.json's run_seconds: the one window the acceptance
// driver gives every workload. 20 s is the floor the wire workloads need;
// 114 driver runs of 20 s plus three set-ups each fit its 3420 s budget.
const runSeconds = 20

func wantBenchmarkDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./cmd/tokentm-bench"},
		Paths:      []string{"cmd/tokentm-bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, docWorkload{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, docEndToEnd{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, docLayerStat{m.name, m.unit, m.better})
	}
	return doc
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package one
// definition (-update rewrites the file from the tables), and holds the
// tables to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want := wantBenchmarkDoc()
	if *update {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package (go test -run TestBenchmarkJSON -update rewrites it):\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (has %d)", w.name, len(w.why))
		}
	}
	hasSetup := false
	var maxBound float64
	for _, m := range endToEndMetrics {
		check(m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
		maxBound = max(maxBound, m.bound)
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup || endToEndMetrics[0].bound != maxBound {
		t.Error("setup_s (s, lower) must exist and carry the largest bound")
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	for _, m := range perLayerMetrics {
		check(m.name, m.unit)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

// TestSimFingerprints checks the committed simulator outcomes against this
// build (-update rewrites them after an intended simulator change).
func TestSimFingerprints(t *testing.T) {
	b, err := newSimBench(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, jobs := range b.jobs {
		for _, j := range jobs {
			o, err := tokentm.ExperimentRun(j)
			if err != nil {
				t.Fatalf("%s: %v", j, err)
			}
			got[jobKey(j)] = fingerprint(o)
		}
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "sim_fingerprints.json"), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(got, b.want) {
		t.Errorf("simulated outcomes differ from testdata/sim_fingerprints.json (re-run with -update if the simulator was meant to change):\n got %v\nwant %v", got, b.want)
	}
}

// TestSmoke builds the benchmark and runs every workload end to end with
// sub-second windows and a tiny keyspace: all five untraced passes with
// their checks, the traced pass with the ladder and the span file, and the
// one-workload mode whose last line is the result object.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tokentm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	spans := filepath.Join(dir, "spans.json")
	out, err := exec.Command(bin, "-smoke", "-layers", "-seed", "5", "-out", spans).CombinedOutput()
	if err != nil {
		t.Fatalf("-smoke -layers: %v\n%s", err, out)
	}
	text := string(out)
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			if !strings.Contains(text, w.name) || !strings.Contains(text, m.name) {
				t.Errorf("suite output lacks %s %s", w.name, m.name)
			}
		}
	}
	for _, m := range perLayerMetrics {
		if !strings.Contains(text, m.name) {
			t.Errorf("-layers output lacks %s", m.name)
		}
	}
	if strings.Contains(text, "CHECK FAILED") {
		t.Errorf("a correctness check failed:\n%s", text)
	}
	var sf spanFile
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &sf); err != nil || len(sf.Workloads) != len(workloads) {
		t.Fatalf("span file: %v, %d workloads", err, len(sf.Workloads))
	}
	for _, sec := range sf.Workloads {
		n := 0
		for _, tr := range sec.Tracers {
			n += len(tr)
		}
		if n == 0 {
			t.Errorf("span file: %s recorded no spans", sec.Workload)
		}
	}

	// One-workload mode: the last stdout line is the result object with
	// exactly the declared metrics.
	for trace, want := range map[string]int{"0": len(endToEndMetrics), "1": len(perLayerMetrics)} {
		cmd := exec.Command(bin, "-smoke", "--workload", "wire-multi", "--seed", "9", "--seconds", "0.3", "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("--trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]metric
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("--trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != want {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d, %d metrics (want %d)", trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
		}
	}

	// Outside a module (a directory holding only the benchmark's files) the
	// command must fail, and an unknown workload must too.
	if err := exec.Command(bin, "-smoke", "-workload", "no-such").Run(); err == nil {
		t.Error("unknown workload exited 0")
	}
}
