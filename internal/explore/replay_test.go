package explore

import (
	"reflect"
	"strings"
	"testing"

	"tokentm/internal/core"
	"tokentm/internal/sim"
	"tokentm/internal/trace"
)

// TestScheduleRoundTrip checks FormatSchedule/ParseSchedule are inverses.
func TestScheduleRoundTrip(t *testing.T) {
	ds := []Decision{
		{Kind: DecRun, Core: 0},
		{Kind: DecRun, Core: 13},
		{Kind: DecPreempt, Core: 1},
		{Kind: DecBounce},
		{Kind: DecRun, Core: 2},
	}
	s := FormatSchedule(ds)
	if s != "R0.R13.P1.B.R2" {
		t.Fatalf("FormatSchedule = %q", s)
	}
	back, err := ParseSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatalf("round trip: %v != %v", back, ds)
	}
	if got, err := ParseSchedule(""); err != nil || got != nil {
		t.Fatalf("empty schedule: %v, %v", got, err)
	}
	for _, bad := range []string{"R", "Rx", "P-1", "BB", "R0..R1", "Q3"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestReplayByteIdentical re-runs a serialized schedule twice and demands
// identical outcomes: same decisions, commit records, core times, and state
// fingerprint. This is the property that makes counterexamples trustworthy.
func TestReplayByteIdentical(t *testing.T) {
	// A schedule-budget truncation must report Complete=false, so a CI
	// budget that silently stops enumerating can't masquerade as a proof.
	prog := ProgramByName("upgrade-duel")
	o := DefaultOptions("TokenTM", DefaultBudget())
	o.MaxSchedules = 40
	if r := Explore(prog, o); r.Complete || r.Schedules > 40 {
		t.Fatalf("budget of 40 gave complete=%v schedules=%d", r.Complete, r.Schedules)
	}
	// Any syntactically valid schedule replays; use a handcrafted one mixing
	// all decision kinds, plus the default extension past its end.
	schedule := "R0.R1.R0.P0.R0.B.R1.R0"
	for _, variant := range Variants {
		if variant != "TokenTM" && variant != "TokenTM_NoFast" {
			continue // bounce decisions need a TokenTM system
		}
		a, err := Replay(prog, variant, core.MutNone, schedule, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Replay(prog, variant, core.MutNone, schedule, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Violation != nil {
			t.Fatalf("%s: schedule violates: %+v", variant, a.Violation)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: replays diverged:\n%+v\n%+v", variant, a, b)
		}
		if a.Fingerprint == 0 {
			t.Fatalf("%s: completed replay has no fingerprint", variant)
		}
		if len(a.Commits) != prog.Txns() {
			t.Fatalf("%s: %d commit records for %d transactions", variant, len(a.Commits), prog.Txns())
		}
	}
}

// TestReplayRejectsUnofferedDecisions: a forced decision its decision point
// does not offer is a malformed schedule, reported as an error — not run,
// and not reported as a protocol violation.
func TestReplayRejectsUnofferedDecisions(t *testing.T) {
	for _, c := range []struct {
		name, variant, schedule string
	}{
		{"no such core", "TokenTM", "R0.R7"},
		{"no such preempt", "TokenTM", "R0.P9"},
		{"core with nothing to run", "TokenTM", strings.Repeat("R1.", 12) + "R1"},
		{"bounce without tokens", "LogTM-SE_Perf", "R0.B"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rr, err := Replay(ProgramByName("writer-reread"), c.variant, core.MutNone, c.schedule, 0, 0, nil)
			if err == nil {
				t.Fatalf("replay of %q accepted: %+v", c.schedule, rr.Violation)
			}
			if !strings.Contains(err.Error(), "not offered") {
				t.Fatalf("error %q does not name the unoffered decision", err)
			}
		})
	}
}

// TestReplayTraced wires a counterexample replay through trace.Tracer — the
// diagnosis path — and expects the protocol event stream to be captured.
func TestReplayTraced(t *testing.T) {
	tr := trace.NewTracer(1024)
	rr, err := Replay(ProgramByName("incr-cross"), "TokenTM", core.MutSkipLogCredit, "R0", 0, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Violation == nil {
		t.Fatal("seeded bug produced no violation under replay")
	}
	if rr.Violation.Kind != "bookkeeping" {
		t.Fatalf("violation kind = %s, want bookkeeping", rr.Violation.Kind)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer captured no events")
	}
}

// TestExplorerReportsDeadlock checks the deadlock path end to end: a
// program whose threads interleave lock-free cannot deadlock, so drive the
// machine into one directly and check the structured report the explorer
// would record.
func TestExplorerReportsDeadlock(t *testing.T) {
	m := sim.New(sim.Config{Cores: 2})
	m.SetHTM(core.New(m.Mem, m.Store))
	m.Spawn(func(tc *sim.Ctx) { tc.Lock(1); tc.Lock(2); tc.Unlock(2); tc.Unlock(1) })
	m.Spawn(func(tc *sim.Ctx) { tc.Lock(2); tc.Lock(1); tc.Unlock(1); tc.Unlock(2) })
	defer m.Kill()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a deadlock panic")
		}
		err, ok := r.(*sim.DeadlockError)
		if !ok {
			t.Fatalf("panic value %T, want *sim.DeadlockError", r)
		}
		if len(err.Threads) != 2 {
			t.Fatalf("deadlock report has %d threads, want 2", len(err.Threads))
		}
	}()
	m.Run()
}
