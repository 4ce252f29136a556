package sim

// TestAllocFreeAnnotations is this package's allocation guard: each row
// drives one of the scheduler's per-access helpers — cycle charging and the
// ready-core index — and must measure zero allocations per run. The charge
// methods run on every simulated access, so an allocation there would slow
// every sweep.

import (
	"testing"

	"tokentm/internal/attr"
)

func TestAllocFreeAnnotations(t *testing.T) {
	m := New(Config{Cores: 2})
	// A bare Ctx rig: charge only needs the thread's machine and core.
	tc := &Ctx{th: &Thread{m: m, core: m.cores[0]}}

	// A machine whose cores hold every kind of work: core 0 a running
	// thread, core 1 two queued threads ready at different times, core 2
	// threads sleeping until a time before and after its clock and one
	// waiting on a lock, core 3 nothing.
	q := New(Config{Cores: 4})
	c0, c1, c2 := q.cores[0], q.cores[1], q.cores[2]
	c0.cur = &Thread{m: q, core: c0}
	c1.time = 50
	c1.runq = []*Thread{{m: q, core: c1, readyAt: 80}, {m: q, core: c1, readyAt: 20}}
	c2.time = 50
	c2.blocked = []*Thread{
		{m: q, core: c2, state: tsBlockedTime, wakeAt: 90},
		{m: q, core: c2, state: tsBlockedTime, wakeAt: 30},
		{m: q, core: c2, state: tsWaitingLock},
	}

	entries := []struct {
		name string
		fn   func()
	}{
		{"Machine.charge", func() {
			m.charge(0, attr.Barrier, 5)
			m.charge(1, attr.CtxSwitch, 2)
		}},
		{"Ctx.charge", func() {
			// Both routes: direct to the core, and into a pending frame.
			tc.pend = nil
			tc.charge(attr.Useful, 3)
			tc.pend = &tc.atomPend
			tc.charge(attr.Useful, 3)
			tc.charge(attr.Commit, 1) // not in-attempt: direct even with a frame
			tc.pend = nil
		}},
		{"Machine.refreshReady", func() {
			m.refreshReady(m.cores[0])
			m.refreshReady(m.cores[1])
		}},
		{"Machine.refreshReady/queued", func() {
			for _, c := range q.cores {
				q.refreshReady(c)
			}
			if c := q.pickReadyCore(); c == nil || c.id != 0 {
				panic("pickReadyCore missed the running core")
			}
		}},
		{"Machine.pickReadyCore", func() {
			m.setReadyKey(0, 9<<m.readyShift|0)
			m.setReadyKey(1, 3<<m.readyShift|1)
			if c := m.pickReadyCore(); c == nil || c.id != 1 {
				panic("pickReadyCore picked the wrong core")
			}
			m.setReadyKey(0, notReady)
			m.setReadyKey(1, notReady)
			if m.pickReadyCore() != nil {
				panic("pickReadyCore picked a core with nothing to run")
			}
		}},
	}

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				e.fn()
			}
			if n := testing.AllocsPerRun(100, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
		})
	}
}
