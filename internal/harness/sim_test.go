package harness_test

// These tests drive the harness with the real simulator (the root tokentm
// package). They pin the two contracts the whole subsystem rests on:
//
//   - determinism: one (workload, variant, seed) cell always produces the
//     same metrics, which is what makes a result reproducible from its
//     cell alone — this pins the min-time-ordering contract of
//     internal/sim's scheduler;
//   - isolation: simulated machines share no mutable state, which is what
//     makes the grid embarrassingly parallel — run with -race to let the
//     detector prove it over a parallel sweep.

import (
	"bytes"
	"reflect"
	"testing"

	"tokentm"
	"tokentm/internal/harness"
)

// raceScale keeps real-simulator tests quick; correctness is scale-free.
const raceScale = 0.004

func TestDeterminismGuard(t *testing.T) {
	job := harness.Job{Workload: "Radiosity", Variant: string(tokentm.VariantTokenTM), Scale: 0.01, Seed: 7}
	a, err := tokentm.ExperimentRun(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tokentm.ExperimentRun(job)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("same job, different cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Commits != b.Commits {
		t.Fatalf("same job, different commits: %d vs %d", a.Commits, b.Commits)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same job, different outcome:\n%+v\n%+v", a, b)
	}
	if a.Commits == 0 || a.Cycles == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

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

func TestSweepJSONByteIdenticalAcrossParallelism(t *testing.T) {
	jobs := harness.Grid(
		[]string{"Barnes", "Radiosity"},
		[]string{string(tokentm.VariantTokenTM), string(tokentm.VariantLogTMSEPerf)},
		raceScale, []int64{1, 2})
	emit := func(par int) []byte {
		r := tokentm.NewRunner(tokentm.SweepOptions{Parallel: par})
		var buf bytes.Buffer
		if err := harness.WriteJSON(&buf, "v-test", r.Sweep(jobs)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(1), emit(4)) {
		t.Fatal("simulator sweep JSON differs between parallel=1 and parallel=4")
	}
}

func TestVerifyPassesOnRealMachine(t *testing.T) {
	r := tokentm.NewRunner(tokentm.SweepOptions{})
	job := harness.Job{Workload: "Barnes", Variant: string(tokentm.VariantTokenTM), Scale: 0.01}
	if err := r.Verify(job, 1, 2); err != nil {
		t.Fatalf("verify on healthy simulator: %v", err)
	}
}
