package tokentm

// Scheduler goldens: the event engine (internal/sim/events.go) is the only
// engine for the default min-time schedule since the legacy per-turn loop's
// Config.LegacyStepper flag was removed (it had been kept for exactly one
// release, PR 7). Equivalence is now pinned two ways:
//
//  1. Golden fingerprints: every workload × variant × seed run must hash to
//     the checked-in value in testdata/scheduler_golden.txt — the same
//     observables the old A/B test compared (makespan, commit journal,
//     abort stream, cycle attribution, per-core clocks), collapsed to one
//     FNV-1a line per run. Regenerate with TOKENTM_UPDATE_GOLDEN=1 after a
//     deliberate schedule change and review the diff.
//  2. A per-turn spot check: the surviving per-turn steps (still used by
//     preemptive machines and the schedule explorer) must produce identical
//     observables on a sampled grid, driven turn by turn through
//     RunnableCores / MinTimeCore / StepOn.

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tokentm/internal/sim"
	"tokentm/internal/workload"
)

// equivScale keeps the full-grid sweep quick while still exercising
// contention, aborts, stalls, evictions and deferred-work flushing.
const equivScale = 0.002

const goldenPath = "testdata/scheduler_golden.txt"

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

func goldenKey(spec workload.Spec, v Variant, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", spec.Name, v, seed)
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
	for _, spec := range workload.Specs() {
		for _, v := range Variants() {
			for _, seed := range seeds {
				spec, v, seed := spec, v, seed
				t.Run(goldenKey(spec, v, seed), func(t *testing.T) {
					d, sys := runWorkload(spec, v, equivScale, seed)
					if err := sys.M.CheckConservation(); err != nil {
						t.Errorf("conservation: %v", err)
					}
					fp := fingerprintDetail(d)
					key := goldenKey(spec, v, seed)
					if update {
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
		}
	}

	if update {
		out := "# workload/variant/seed fnv1a64(observables) — regenerate with TOKENTM_UPDATE_GOLDEN=1 go test -run TestSchedulerGoldens\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatalf("writing %s: %v", goldenPath, err)
		}
		t.Logf("wrote %d goldens to %s", len(lines), goldenPath)
	}
}

// runPerTurn is runWorkload on the per-turn reference: the loop Run uses for
// preemptive machines, driven here from outside because a Quantum == 0
// machine's Run takes the event engine.
func runPerTurn(t *testing.T, spec workload.Spec, v Variant, seed int64) (RunDetail, *System) {
	sys := New(Config{Variant: v, Cores: evalCores, Seed: seed})
	spec.Build(sys.M, evalCores, equivScale, seed)
	for sys.M.Live() > 0 {
		choices := sys.M.RunnableCores()
		if len(choices) == 0 {
			t.Fatal("per-turn reference deadlocked")
		}
		sys.M.StepOn(sim.MinTimeCore(choices))
	}
	d := RunDetail{
		Workload:  spec.Name,
		Variant:   v,
		Cycles:    slices.Max(sys.M.CoreTimes()),
		Commits:   sys.M.Commits,
		Metrics:   *sys.HTM.Stats(),
		Breakdown: sys.M.BreakdownTotal(),
		CoreTimes: sys.M.CoreTimes(),
		AbortRecs: sys.M.AbortRecs,
	}
	if tok := sys.TokenTM(); tok != nil {
		d.FastCommits = tok.FastCommits
		d.SlowCommits = tok.SlowCommits
	}
	return d, sys
}

// TestPerTurnLoopMatchesEventEngine keeps the surviving per-turn loop
// honest against the event engine on a sampled grid: identical observables,
// record for record.
func TestPerTurnLoopMatchesEventEngine(t *testing.T) {
	specs := workload.Specs()
	if len(specs) > 2 && !testing.Short() {
		specs = specs[:3]
	} else {
		specs = specs[:1]
	}
	for _, spec := range specs {
		for _, v := range Variants() {
			spec, v := spec, v
			t.Run(spec.Name+"/"+string(v), func(t *testing.T) {
				event, sysE := runWorkload(spec, v, equivScale, 1)
				turn, sysT := runPerTurn(t, spec, v, 1)
				if !reflect.DeepEqual(event, turn) {
					t.Errorf("per-turn loop diverges from event engine:\n event:    fingerprint %016x\n per-turn: fingerprint %016x",
						fingerprintDetail(event), fingerprintDetail(turn))
				}
				if err := sysE.M.CheckConservation(); err != nil {
					t.Errorf("event engine: %v", err)
				}
				if err := sysT.M.CheckConservation(); err != nil {
					t.Errorf("per-turn loop: %v", err)
				}
			})
		}
	}
}
