package explore

import (
	"fmt"
	"strings"
	"testing"

	"tokentm/internal/core"
	"tokentm/internal/sim"
)

// TestExhaustiveAllVariants is the acceptance gate: exhaustive mode fully
// enumerates every standard 2-core/3-thread/2-block program for every HTM
// variant within the CI budget, with every invariant holding.
func TestExhaustiveAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration sweep is minutes of work; run without -short")
	}
	for _, prog := range StandardPrograms() {
		for _, variant := range Variants {
			prog, variant := prog, variant
			t.Run(prog.Name+"/"+variant, func(t *testing.T) {
				t.Parallel()
				r := Explore(prog, DefaultOptions(variant, DefaultBudget()))
				t.Logf("schedules=%d steps=%d states=%d pruned(seen)=%d pruned(sleep)=%d maxDepth=%d commits=%d aborts=%d",
					r.Schedules, r.Steps, r.DistinctStates, r.PrunedVisited, r.PrunedSleep, r.MaxDepth, r.Commits, r.Aborts)
				if !r.Complete {
					t.Fatalf("enumeration incomplete within %d schedules", r.Schedules)
				}
				for _, v := range r.Violations {
					t.Errorf("violation %s at step %d: %s\n  replay: %s", v.Kind, v.Step, v.Message, v.Schedule)
				}
				if r.Evictions != 0 {
					t.Errorf("%d cache evictions — fingerprint pruning assumes eviction-free programs (LRU state is excluded from the hash)", r.Evictions)
				}
			})
		}
	}
}

// TestMutationsDetected is the checker's self-test: each seeded protocol bug
// must produce a violation with a replayable counterexample, and the replay
// must reproduce it exactly.
func TestMutationsDetected(t *testing.T) {
	for _, target := range mutationTargets() {
		target := target
		t.Run(target.mut.String(), func(t *testing.T) {
			t.Parallel()
			mc := CheckMutation(target.mut, target.prog, DefaultBudget())
			if !mc.Detected {
				t.Fatalf("mutation %s on %s not detected in %d schedules", target.mut, target.prog, mc.Schedules)
			}
			v := mc.Violation
			t.Logf("detected after %d schedules: [%s] %s\n  replay: %s", mc.Schedules, v.Kind, v.Message, v.Schedule)
			rr, err := Replay(ProgramByName(target.prog), "TokenTM", target.mut, v.Schedule, DefaultBudget().Seed, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Violation == nil {
				t.Fatalf("replaying counterexample %q reproduced no violation", v.Schedule)
			}
			if rr.Violation.Kind != v.Kind || rr.Violation.Message != v.Message {
				t.Fatalf("replay produced [%s] %q, exploration produced [%s] %q",
					rr.Violation.Kind, rr.Violation.Message, v.Kind, v.Message)
			}
			// The correct protocol survives the same schedule.
			clean, err := Replay(ProgramByName(target.prog), "TokenTM", core.MutNone, v.Schedule, DefaultBudget().Seed, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Violation != nil {
				t.Fatalf("unmutated protocol violates on the same schedule: [%s] %s", clean.Violation.Kind, clean.Violation.Message)
			}
		})
	}
}

// TestSleepSetEquivalence checks the commuting-siblings rule against plain
// enumeration on the program built for it: pruning must not change the
// verdict, must actually fire, and must only shrink the explored space.
func TestSleepSetEquivalence(t *testing.T) {
	prog := ProgramByName("disjoint-lanes")
	on := DefaultOptions("TokenTM", DefaultBudget())
	off := on
	off.SleepSets = false
	ron := Explore(prog, on)
	roff := Explore(prog, off)
	t.Logf("sleep sets on: schedules=%d states=%d prunedSleep=%d; off: schedules=%d states=%d",
		ron.Schedules, ron.DistinctStates, ron.PrunedSleep, roff.Schedules, roff.DistinctStates)
	if !ron.Complete || !roff.Complete {
		t.Fatalf("incomplete enumeration: on=%v off=%v", ron.Complete, roff.Complete)
	}
	if ron.TotalViolations != roff.TotalViolations {
		t.Fatalf("sleep sets changed the verdict: %d violations with, %d without", ron.TotalViolations, roff.TotalViolations)
	}
	if ron.PrunedSleep == 0 {
		t.Fatal("sleep-set rule never fired on the disjoint-footprint program")
	}
	if ron.Schedules >= roff.Schedules {
		t.Fatalf("sleep sets did not shrink the tree: %d vs %d schedules", ron.Schedules, roff.Schedules)
	}
}

// TestExploreDeterministic re-runs the exhaustive exploration of one cell
// and expects an identical summary — the property CI's BENCH_explore.json
// diff rests on.
func TestExploreDeterministic(t *testing.T) {
	prog := ProgramByName("writer-reread")
	o := DefaultOptions("TokenTM", DefaultBudget())
	a := Explore(prog, o)
	b := Explore(prog, o)
	if a.Schedules != b.Schedules || a.Steps != b.Steps || a.DistinctStates != b.DistinctStates ||
		a.PrunedVisited != b.PrunedVisited || a.PrunedSleep != b.PrunedSleep ||
		a.MaxDepth != b.MaxDepth || a.Commits != b.Commits || a.Aborts != b.Aborts {
		t.Fatalf("explorations diverged:\n%+v\n%+v", a, b)
	}
}

// TestEndChecksReportsLowestAddress: a transaction's journaled reads are a
// map, so the serializability check must walk them in address order. With
// every read wrong, the reported one is the lowest address, on every walk.
func TestEndChecksReportsLowestAddress(t *testing.T) {
	prog := &Program{Name: "read-four", Cores: 1, Blocks: 4, Threads: []ThreadProg{{Txns: []Txn{{
		{Kind: OpLoad, Block: 2}, {Kind: OpLoad, Block: 0}, {Kind: OpLoad, Block: 3}, {Kind: OpLoad, Block: 1},
	}}}}}
	m := sim.New(sim.Config{Cores: prog.Cores})
	sys, tok := buildHTM(m, "TokenTM", core.MutNone)
	m.SetHTM(sys)
	journals := spawnProgram(m, prog)
	m.Run()
	for a := range journals[0][0].reads {
		journals[0][0].reads[a] = 7
	}
	vio := func(kind, msg string) *Violation { return &Violation{Kind: kind, Message: msg} }
	want := fmt.Sprintf("read %v=7,", prog.BlockAddr(0))
	for range 20 {
		v := endChecks(m, tok, prog, journals, vio)
		if v == nil || v.Kind != "serializability" || !strings.Contains(v.Message, want) {
			t.Fatalf("endChecks = %+v, want a serializability violation naming %q", v, want)
		}
	}
}
