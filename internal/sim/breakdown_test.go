package sim

import (
	"strings"
	"testing"

	"tokentm/internal/attr"
	"tokentm/internal/mem"
)

// contend runs a heavily conflicting counter workload (single shared block,
// many threads) so every variant exercises stalls, backoffs and aborts.
func contend(t *testing.T, variant string) *Machine {
	t.Helper()
	m := New(Config{Cores: 4, Seed: 7})
	m.SetHTM(buildHTM(m, variant))
	const addr mem.Addr = 0x3000
	for i := 0; i < 8; i++ {
		m.Spawn(func(tc *Ctx) {
			for k := 0; k < 10; k++ {
				tc.Atomic(func(tx *Tx) {
					v := tx.Load(addr)
					tx.Work(30)
					tx.Store(addr, v+1)
				})
				tc.Work(10)
			}
		})
	}
	m.Run()
	return m
}

// TestCycleConservation is the tentpole invariant on every variant: each
// core's attribution buckets sum exactly to its clock, the machine-wide
// merge matches the sum of core clocks, and each abort produced exactly one
// lifecycle record.
func TestCycleConservation(t *testing.T) {
	for _, variant := range allVariants {
		t.Run(variant, func(t *testing.T) {
			m := contend(t, variant)
			if err := m.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			bds := m.Breakdowns()
			times := m.CoreTimes()
			var clockSum mem.Cycle
			for i := range bds {
				if bds[i].Total() != times[i] {
					t.Errorf("core %d: breakdown %d != clock %d", i, bds[i].Total(), times[i])
				}
				clockSum += times[i]
			}
			total := m.BreakdownTotal()
			if got := total.Total(); got != clockSum {
				t.Errorf("machine breakdown %d != core clock sum %d", got, clockSum)
			}
			aborts := 0
			for _, th := range m.Threads() {
				if len(th.AbortRecs) != th.AbortCount {
					t.Errorf("thread %d: %d abort records for %d aborts", th.H.ID, len(th.AbortRecs), th.AbortCount)
				}
				aborts += th.AbortCount
			}
			if len(m.AbortRecs) != aborts {
				t.Errorf("machine has %d abort records, threads aborted %d times", len(m.AbortRecs), aborts)
			}
			if aborts > 0 && total.Get(attr.Wasted) == 0 {
				t.Errorf("%d aborts but no cycles classified Wasted", aborts)
			}
			if got := m.Store.Load(0x3000); got != 80 {
				t.Fatalf("counter = %d, want 80", got)
			}
		})
	}
}

// TestAbortRecordAttribution checks the lifecycle records point at a real
// enemy transaction and name the conflict kind when a conflict caused the
// abort (backoff-free retries at the user's request carry KindNone).
func TestAbortRecordAttribution(t *testing.T) {
	m := contend(t, "TokenTM")
	if len(m.AbortRecs) == 0 {
		t.Skip("workload produced no aborts at this seed")
	}
	tids := map[mem.TID]bool{}
	for _, th := range m.Threads() {
		tids[th.H.TID] = true
	}
	for _, r := range m.AbortRecs {
		if !tids[r.TID] {
			t.Fatalf("abort record names unknown victim TID %d", r.TID)
		}
		if r.Enemy != mem.NoTID && !tids[r.Enemy] {
			t.Fatalf("abort record names unknown enemy TID %d", r.Enemy)
		}
		if r.Enemy != mem.NoTID && r.Kind.String() == "none" {
			t.Errorf("record with enemy %d has no conflict kind", r.Enemy)
		}
		if r.Attempt < 1 {
			t.Errorf("abort record attempt = %d, want >= 1", r.Attempt)
		}
	}
}

// TestDeadlockReport asserts the deadlock panic names each live thread with
// a symbolic state and, for time-blocked threads, its wake cycle — the
// debugging payload the raw %d report withheld.
func TestDeadlockReport(t *testing.T) {
	m := New(Config{Cores: 2})
	m.SetHTM(buildHTM(m, "TokenTM"))
	// Classic lock-order inversion: AB vs BA.
	m.Spawn(func(tc *Ctx) {
		tc.Lock(1)
		tc.Work(10)
		tc.Lock(2)
	})
	m.Spawn(func(tc *Ctx) {
		tc.Lock(2)
		tc.Work(10)
		tc.Lock(1)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked machine did not panic")
		}
		err, ok := r.(*DeadlockError)
		if !ok {
			t.Fatalf("panic value %#v, want *DeadlockError", r)
		}
		if len(err.Threads) != 2 {
			t.Fatalf("deadlock report has %d threads, want 2", len(err.Threads))
		}
		for i, tr := range err.Threads {
			if tr.Thread != i || tr.State != "waiting-lock" || tr.Timed {
				t.Errorf("thread report %d = %+v, want thread %d waiting-lock untimed", i, tr, i)
			}
		}
		msg := err.Error()
		for _, want := range []string{"deadlock", "thread0(", "thread1(", "state=waiting-lock"} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock message %q missing %q", msg, want)
			}
		}
		if strings.Contains(msg, "state=%!s") || strings.Contains(msg, "state=2") {
			t.Errorf("deadlock message still prints raw state ints: %q", msg)
		}
	}()
	m.Run()
}

// TestThreadStateString pins the symbolic names the deadlock report relies
// on.
func TestThreadStateString(t *testing.T) {
	want := map[threadState]string{
		tsRunnable:    "runnable",
		tsRunning:     "running",
		tsBlockedTime: "blocked-time",
		tsWaitingLock: "waiting-lock",
		tsFinished:    "finished",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", s, got, name)
		}
	}
}
