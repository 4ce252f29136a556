package harness_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tokentm/internal/harness"
)

// fakeRun derives a deterministic Outcome from the job parameters alone,
// so tests can predict results without a simulator.
func fakeRun(j harness.Job) (harness.Outcome, error) {
	c := uint64(len(j.Workload))*1000 + uint64(j.Seed)
	return harness.Outcome{Cycles: c, Commits: c / 10, Aborts: c % 7}, nil
}

// reversedRun is fakeRun delayed so that each wave of 8 jobs (the pool of
// the order tests) finishes in reverse submission order: job i returns after
// 8 - i%8 ms. A Sweep that placed results in completion order, not job order,
// fails every order check run against it. Sleeps never wait on another job,
// so no pool size can deadlock.
func reversedRun(j harness.Job) (harness.Outcome, error) {
	time.Sleep(time.Duration(8-j.Seed%8) * time.Millisecond)
	return fakeRun(j)
}

func grid(n int) []harness.Job {
	var jobs []harness.Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, harness.Job{Workload: fmt.Sprintf("w%d", i), Variant: "V", Scale: 0.5, Seed: int64(i)})
	}
	return jobs
}

func TestSweepReturnsResultsInJobOrder(t *testing.T) {
	jobs := grid(32)
	r := &harness.Runner{Run: reversedRun, Parallel: 8}
	results := r.Sweep(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Job != jobs[i] {
			t.Fatalf("result %d is for job %v, want %v", i, res.Job, jobs[i])
		}
		want, _ := fakeRun(jobs[i])
		if !reflect.DeepEqual(res.Outcome, want) {
			t.Fatalf("result %d outcome %+v, want %+v", i, res.Outcome, want)
		}
		if !res.OK() || res.WallNS < 0 {
			t.Fatalf("result %d not ok: %+v", i, res)
		}
	}
}

func TestSweepIsolatesPanics(t *testing.T) {
	run := func(j harness.Job) (harness.Outcome, error) {
		if j.Seed == 3 {
			panic("simulated machine exploded")
		}
		if j.Seed == 5 {
			return harness.Outcome{}, fmt.Errorf("plain failure")
		}
		return fakeRun(j)
	}
	r := &harness.Runner{Run: run, Parallel: 4}
	results := r.Sweep(grid(8))
	for i, res := range results {
		switch i {
		case 3:
			if res.OK() || !strings.Contains(res.Err, "simulated machine exploded") {
				t.Fatalf("panicking job: %+v", res)
			}
			if !strings.Contains(res.Stack, "goroutine") {
				t.Fatalf("no stack attached: %q", res.Stack)
			}
		case 5:
			if res.OK() || res.Err != "plain failure" || res.Stack != "" {
				t.Fatalf("failing job: %+v", res)
			}
		default:
			if !res.OK() {
				t.Fatalf("healthy job %d failed: %s", i, res.Err)
			}
		}
	}
}

// TestJSONByteStableAcrossParallelism is the determinism contract: the
// JSON document is byte-identical whether the sweep ran on one worker or
// many.
func TestJSONByteStableAcrossParallelism(t *testing.T) {
	jobs := grid(24)
	emit := func(r *harness.Runner) []byte {
		var buf bytes.Buffer
		if err := harness.WriteJSON(&buf, "v-test", r.Sweep(jobs)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := emit(&harness.Runner{Run: reversedRun, Parallel: 1})
	parallel := emit(&harness.Runner{Run: reversedRun, Parallel: 8})
	if !bytes.Equal(serial, parallel) {
		t.Fatal("JSON differs between parallel=1 and parallel=8")
	}
	if !bytes.Contains(serial, []byte(harness.SweepSchema)) {
		t.Fatalf("missing schema marker in %s", serial)
	}
}

func TestProgressReportsEveryJob(t *testing.T) {
	var buf bytes.Buffer
	safe := &syncWriter{w: &buf}
	r := &harness.Runner{Run: fakeRun, Parallel: 4, Progress: safe}
	r.Sweep(grid(9))
	if got := strings.Count(buf.String(), "harness: ["); got != 9 {
		t.Fatalf("%d progress lines for 9 jobs:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "[9/9]") {
		t.Fatalf("no final count line:\n%s", buf.String())
	}
}

// syncWriter serializes writes: Runner already locks around Progress
// writes, but the race detector should see the buffer as ours.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestHistoryAccumulatesAcrossSweeps(t *testing.T) {
	r := &harness.Runner{Run: fakeRun, Parallel: 2, KeepHistory: true}
	r.Sweep(grid(4))
	r.Sweep(grid(6)[4:])
	hist := r.History()
	if len(hist) != 6 {
		t.Fatalf("history holds %d results", len(hist))
	}
	for i, res := range hist {
		if res.Job != grid(6)[i] {
			t.Fatalf("history out of order at %d: %+v", i, res.Job)
		}
	}
}

func TestGridRowMajorOrder(t *testing.T) {
	jobs := harness.Grid([]string{"A", "B"}, []string{"x", "y"}, 1, []int64{1, 2})
	if len(jobs) != 8 {
		t.Fatalf("grid size %d", len(jobs))
	}
	want := harness.Job{Workload: "A", Variant: "y", Scale: 1, Seed: 2}
	if jobs[3] != want {
		t.Fatalf("jobs[3] = %+v, want %+v", jobs[3], want)
	}
}
