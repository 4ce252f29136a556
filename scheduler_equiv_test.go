package tokentm

// Scheduler goldens: the simulator has one scheduler, the event engine
// (internal/sim/events.go), behind both Machine.Run and Machine.RunChoosing.
// Its schedule is pinned two ways:
//
//  1. Golden fingerprints: every run of the grid — workload × variant × seed
//     on the 32-core evaluation machine, the same at 16 threads on 8 cores
//     for two preemption quanta, and the four lcs server models — must hash
//     to the checked-in value in testdata/scheduler_golden.txt. The hash
//     covers makespan, commit journal, abort stream, cycle attribution and
//     per-core clocks, one FNV-1a line per run. Regenerate with
//     TOKENTM_UPDATE_GOLDEN=1 after a deliberate schedule change and review
//     the diff; regeneration runs every cell twice and writes nothing
//     unless the two runs agree. Each cell's commit count must also be
//     equal across seeds, and on TokenTM every commit takes one of the two
//     release paths. This is the simulator's determinism gate: one
//     (workload, variant, scale, seed) tuple names exactly one execution.
//  2. A per-turn spot check: Run must equal RunChoosing with a chooser that
//     returns the default pick, on a sampled grid. A chooser is asked before
//     every turn and turns Work deferral off, so this checks that deferral
//     and the cached min-time pick keep the schedule.

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"tokentm/internal/lcs"
	"tokentm/internal/sim"
	"tokentm/internal/workload"
)

// equivScale keeps the full-grid sweep quick while still exercising
// contention, aborts, stalls, evictions and deferred-work flushing.
const equivScale = 0.002

const goldenPath = "testdata/scheduler_golden.txt"

// The preemptive goldens run 2*preemptCores threads on preemptCores cores
// at each of preemptQuanta.
const preemptCores = 8

var preemptQuanta = []Cycle{1000, 5000}

// fingerprintDetail collapses every schedule-sensitive observable to one
// hash. All fields are structs, arrays and slices (no maps), so the %+v
// rendering — and therefore the hash — is deterministic.
func fingerprintDetail(d RunDetail) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d fast=%d slow=%d\n", d.Cycles, d.FastCommits, d.SlowCommits)
	fmt.Fprintf(h, "metrics=%+v\n", d.Metrics)
	fmt.Fprintf(h, "breakdown=%+v\n", d.Breakdown)
	fmt.Fprintf(h, "cores=%v\n", d.CoreTimes)
	for _, r := range d.Commits {
		fmt.Fprintf(h, "commit=%+v\n", r)
	}
	for _, r := range d.AbortRecs {
		fmt.Fprintf(h, "abort=%+v\n", r)
	}
	return h.Sum64()
}

func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with TOKENTM_UPDATE_GOLDEN=1): %v", goldenPath, err)
	}
	want := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var fp uint64
		if _, err := fmt.Sscanf(line, "%s %x", &key, &fp); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		want[key] = fp
	}
	return want
}

func TestSchedulerGoldens(t *testing.T) {
	update := os.Getenv("TOKENTM_UPDATE_GOLDEN") != ""
	seeds := []int64{1, 2, 3}
	if testing.Short() && !update {
		seeds = seeds[:1]
	}

	var want map[string]uint64
	if !update {
		want = readGolden(t)
	}

	var lines []string
	// golden runs one cell at every seed and checks each run against its
	// golden line, or with update runs it twice and writes the line only if
	// the two runs agree. A seed perturbs timing, not the work done, so the
	// cell's commit count must not depend on the seed.
	golden := func(cell string, run func(seed int64) (RunDetail, *System)) {
		var commits []int
		for _, seed := range seeds {
			key := fmt.Sprintf("%s/%d", cell, seed)
			t.Run(key, func(t *testing.T) {
				d, sys := run(seed)
				commits = append(commits, len(d.Commits))
				if err := sys.M.CheckConservation(); err != nil {
					t.Errorf("conservation: %v", err)
				}
				if tok := sys.TokenTM(); tok != nil {
					if err := tok.CheckBookkeeping(); err != nil {
						t.Errorf("bookkeeping: %v", err)
					}
				}
				if split := d.FastCommits + d.SlowCommits; split != 0 && split != uint64(len(d.Commits)) {
					t.Errorf("fast %d + slow %d release commits, want all %d commits", d.FastCommits, d.SlowCommits, len(d.Commits))
				}
				fp := fingerprintDetail(d)
				if update {
					if again, _ := run(seed); fingerprintDetail(again) != fp {
						t.Fatalf("two runs of one cell differ (%016x, %016x): not writing a nondeterministic golden", fp, fingerprintDetail(again))
					}
					lines = append(lines, fmt.Sprintf("%s %016x", key, fp))
					return
				}
				wantFP, ok := want[key]
				if !ok {
					t.Fatalf("no golden for %s; regenerate with TOKENTM_UPDATE_GOLDEN=1", key)
				}
				if fp != wantFP {
					t.Errorf("schedule fingerprint %016x, golden %016x; if the schedule change is deliberate, regenerate with TOKENTM_UPDATE_GOLDEN=1 and review the diff", fp, wantFP)
				}
			})
		}
		for i, n := range commits {
			if n != commits[0] {
				t.Errorf("%s: commit count depends on seed: %d at seed %d, %d at seed %d", cell, commits[0], seeds[0], n, seeds[i])
			}
		}
	}
	for _, spec := range workload.Specs() {
		for _, v := range Variants() {
			golden(fmt.Sprintf("%s/%s", spec.Name, v), func(seed int64) (RunDetail, *System) {
				return runWorkload(spec, v, equivScale, seed)
			})
		}
	}
	// Preemptive machines: two threads per core, so quantum expiries switch
	// contexts inside transactions (TokenTM's §4.4 flash-OR path).
	for _, spec := range workload.Specs() {
		for _, v := range Variants() {
			for _, q := range preemptQuanta {
				golden(fmt.Sprintf("%s/%s/q%d", spec.Name, v, q), func(seed int64) (RunDetail, *System) {
					sys := New(Config{Variant: v, Cores: preemptCores, Quantum: q, Seed: seed})
					spec.Build(sys.M, 2*preemptCores, equivScale, seed)
					sys.Run()
					return sys.Detail(spec.Name, v), sys
				})
			}
		}
	}
	for _, model := range lcs.Models() {
		golden("lcs/"+model.Name, func(seed int64) (RunDetail, *System) {
			_, m := lcs.Simulate(model, seed)
			sys := &System{M: m, HTM: m.HTM}
			return sys.Detail(model.Name, VariantTokenTM), sys
		})
	}

	if update {
		if t.Failed() {
			t.Fatalf("not writing %s: the runs above failed", goldenPath)
		}
		out := "# workload/variant/seed fnv1a64(observables) — regenerate with TOKENTM_UPDATE_GOLDEN=1 go test -run TestSchedulerGoldens\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatalf("writing %s: %v", goldenPath, err)
		}
		t.Logf("wrote %d goldens to %s", len(lines), goldenPath)
	}
}

// runPerTurn is runWorkload with a chooser that takes the default pick
// before every turn: the same schedule, one turn at a time and with no Work
// deferred. It also counts the turns whose cached pick differs from a fresh
// scan of the runnable cores (smallest ReadyAt, ties to the lower core id).
func runPerTurn(spec workload.Spec, v Variant, seed int64) (RunDetail, *System, int) {
	sys := New(Config{Variant: v, Cores: evalCores, Seed: seed})
	spec.Build(sys.M, evalCores, equivScale, seed)
	stale := 0
	sys.M.RunChoosing(func(choices []sim.CoreChoice, def int) (int, bool) {
		best := choices[0]
		for _, c := range choices[1:] {
			if c.ReadyAt < best.ReadyAt {
				best = c
			}
		}
		if best.Core != def {
			stale++
		}
		return def, true
	})
	return sys.Detail(spec.Name, v), sys, stale
}

// TestPerTurnLoopMatchesEventEngine checks Run against the per-turn
// schedule (runPerTurn) on a sampled grid: identical observables, record
// for record.
func TestPerTurnLoopMatchesEventEngine(t *testing.T) {
	specs := workload.Specs()
	if len(specs) > 2 && !testing.Short() {
		specs = specs[:3]
	} else {
		specs = specs[:1]
	}
	for _, spec := range specs {
		for _, v := range Variants() {
			t.Run(spec.Name+"/"+string(v), func(t *testing.T) {
				run, sysR := runWorkload(spec, v, equivScale, 1)
				turn, sysT, stale := runPerTurn(spec, v, 1)
				if stale != 0 {
					t.Errorf("%d turns' cached pick differs from a scan of the runnable cores", stale)
				}
				if !reflect.DeepEqual(run, turn) {
					t.Errorf("per-turn schedule diverges from Run:\n Run:      fingerprint %016x\n per-turn: fingerprint %016x",
						fingerprintDetail(run), fingerprintDetail(turn))
				}
				if err := sysR.M.CheckConservation(); err != nil {
					t.Errorf("Run: %v", err)
				}
				if err := sysT.M.CheckConservation(); err != nil {
					t.Errorf("per-turn: %v", err)
				}
			})
		}
	}
}
