package harness_test

// These tests drive the harness with the real simulator (the root tokentm
// package). They pin isolation: simulated machines share no mutable state,
// which is what makes the grid embarrassingly parallel — run with -race to
// let the detector prove it over a parallel sweep. That one cell names one
// execution is the scheduler goldens' job (the root package's
// TestSchedulerGoldens).

import (
	"bytes"
	"reflect"
	"testing"

	"tokentm"
	"tokentm/internal/harness"
)

// raceScale keeps real-simulator tests quick; correctness is scale-free.
const raceScale = 0.004

// TestSweepParallelMatchesSerial runs an 8-job sweep at parallelism 4 on
// real machines and checks it equals the serial sweep result-for-result.
// Under -race this also proves the machines share no mutable state.
func TestSweepParallelMatchesSerial(t *testing.T) {
	workloads := []string{"Barnes", "Cholesky", "Radiosity", "Raytrace"}
	variants := []string{string(tokentm.VariantTokenTM), string(tokentm.VariantLogTMSE4xH3)}
	jobs := harness.Grid(workloads, variants, raceScale, []int64{1})
	if len(jobs) != 8 {
		t.Fatalf("grid size %d, want 8", len(jobs))
	}

	serial := tokentm.NewRunner(tokentm.SweepOptions{Parallel: 1}).Sweep(jobs)
	parallel := tokentm.NewRunner(tokentm.SweepOptions{Parallel: 4}).Sweep(jobs)
	for i := range jobs {
		if !serial[i].OK() || !parallel[i].OK() {
			t.Fatalf("job %s failed: %q / %q", jobs[i], serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Outcome, parallel[i].Outcome) {
			t.Fatalf("job %s diverges across parallelism:\nserial   %+v\nparallel %+v",
				jobs[i], serial[i].Outcome, parallel[i].Outcome)
		}
	}
}

// TestSweepJSONByteIdenticalAcrossParallelism runs an 8-job sweep on real
// machines serially and at parallelism 4: every job must succeed and the
// two JSON documents must be byte-identical, so the outcomes are equal
// result for result.
func TestSweepJSONByteIdenticalAcrossParallelism(t *testing.T) {
	jobs := harness.Grid(
		[]string{"Barnes", "Radiosity"},
		[]string{string(tokentm.VariantTokenTM), string(tokentm.VariantLogTMSEPerf)},
		raceScale, []int64{1, 2})
	emit := func(par int) []byte {
		r := tokentm.NewRunner(tokentm.SweepOptions{Parallel: par})
		results := r.Sweep(jobs)
		for _, res := range results {
			if !res.OK() {
				t.Fatalf("parallel=%d: job %s failed: %s", par, res.Job, res.Err)
			}
		}
		var buf bytes.Buffer
		if err := harness.WriteJSON(&buf, "v-test", results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(1), emit(4)) {
		t.Fatal("simulator sweep JSON differs between parallel=1 and parallel=4")
	}
}
