package sim

import (
	"tokentm/internal/attr"
	"tokentm/internal/mem"
)

// The event-driven scheduler: the default engine behind Machine.Run.
//
// The legacy engine (StepOn) advances the machine one thread turn at a time
// from a central scheduler goroutine: every turn pays a full channel round
// trip (scheduler -> thread -> scheduler) plus an O(cores) rescan of every
// core's ready time. The event engine keeps the exact same schedule — the
// min-(ready time, core id) order the package comment documents — but turns
// the scheduler inside out:
//
//   - Each core caches its next event time (coreState.ready, maintained
//     incrementally at the few points it can change) instead of being
//     rescanned from its queues every turn.
//   - The scheduler runs *on the yielding thread's goroutine*: after a thread
//     finishes a timed operation it settles its own result, picks the next
//     core, fast-forwards/dispatches it, and hands the "baton" directly to
//     that thread's goroutine — one channel handoff per cross-core turn
//     instead of two, and zero handoffs when the next turn is its own.
//   - Purely local computation (Ctx.Work) is deferred: it charges its attr
//     bucket immediately but advances the core clock lazily at the next
//     shared operation (Thread.flushWork), eliminating the scheduling turn
//     the legacy engine spends on every Work call. This cannot reorder any
//     shared-state access: Work touches no shared state, and the following
//     operation still waits until its (now later) ready time is the global
//     minimum, which is exactly where the legacy schedule would have run it.
//
// Equivalence with the legacy engine is enforced by the root package's
// TestPerTurnLoopMatchesEventEngine (a sampled workload x variant grid =>
// deep-equal metrics, commit/abort journals, attribution breakdowns and core
// clocks), by TestSchedulerGoldens over the full grid, and by the harness
// byte-identity gates. Machines that need preemptive time slicing
// (Quantum > 0) fall back to the legacy engine; the schedule explorer keeps
// driving StepOn directly.

// flushWork advances the core clock over work deferred by Ctx.Work and lets
// every earlier-scheduled core run before the caller's next shared operation.
// It must be called before any operation that touches shared machine state
// (HTM calls, lock transitions, rng draws); the attr charge for the deferred
// cycles was already made at the Work call.
func (th *Thread) flushWork() {
	if th.deferred == 0 {
		return
	}
	m := th.m
	c := th.core
	c.time += th.deferred
	th.deferred = 0
	m.refreshReady(c)
	m.advanceEvent(th, false)
}

// yieldEvent is the event-engine counterpart of the legacy grant/res
// handshake: settle the thread's own result, then advance the machine.
func (m *Machine) yieldEvent(th *Thread, r opResult) {
	th.flushWork()
	c := th.core
	c.time += r.lat
	m.settle(c, th, r)
	m.refreshReady(c)
	m.advanceEvent(th, r.finished)
}

// advanceEvent picks the next core in min-(ready, id) order, dispatches it,
// and passes the baton. When the next turn belongs to the calling thread it
// simply returns — the caller keeps running with no goroutine switch. When
// the caller has finished, the baton is passed and the caller's goroutine
// unwinds without parking.
func (m *Machine) advanceEvent(prev *Thread, finished bool) {
	if m.live == 0 {
		m.done <- nil
		return
	}
	c := m.pickReadyCore()
	if c == nil {
		m.deadlock()
	}
	m.enterCore(c)
	next := c.cur
	next.state = tsRunning
	if next == prev {
		return
	}
	next.grant <- struct{}{}
	if finished {
		return
	}
	<-prev.grant
	if m.killed {
		panic(killSignal{})
	}
}

// enterCore fast-forwards an idle core to its ready time (charged as
// barrier/scheduler wait, exactly as the legacy StepOn does) and dispatches
// a thread onto it.
func (m *Machine) enterCore(c *coreState) {
	t, ok := m.coreReadyTime(c)
	if !ok {
		panic("sim: advance: picked core has nothing to run")
	}
	if c.time < t {
		m.charge(c.id, attr.Barrier, t-c.time)
		c.time = t
	}
	m.dispatch(c)
}

// notReady is the cached key of a core with nothing to run: it compares
// greater than every real key.
const notReady = ^uint64(0)

// refreshReady recomputes core c's cached next-event time. It must be called
// whenever c's schedulability changes: after a turn settles on c, and when a
// lock handoff moves a thread onto c's run queue. The time is cached packed
// as ready<<readyShift | id so the picker's min-scan walks one flat uint64
// slice and the (ready, id) tie-break is a single integer compare.
//
//tokentm:allocfree
func (m *Machine) refreshReady(c *coreState) {
	if t, ok := m.coreReadyTime(c); ok {
		m.readyKeys[c.id] = uint64(t)<<m.readyShift | uint64(c.id)
	} else {
		m.readyKeys[c.id] = notReady
	}
}

// pickReadyCore returns the core with the smallest cached ready time, ties
// broken by the lower core id (the packed keys order exactly as
// MinTimeCore's (ready, id) scan), or nil when no core can run.
//
//tokentm:allocfree
func (m *Machine) pickReadyCore() *coreState {
	best := notReady
	for _, k := range m.readyKeys {
		if k < best {
			best = k
		}
	}
	if best == notReady {
		return nil
	}
	return m.cores[best&(1<<m.readyShift-1)]
}

// runEvent executes the machine to completion on the event engine.
func (m *Machine) runEvent() mem.Cycle {
	m.eventMode = true
	defer func() { m.eventMode = false }()
	if m.live > 0 {
		m.done = make(chan any, 1)
		for _, c := range m.cores {
			m.refreshReady(c)
		}
		c := m.pickReadyCore()
		if c == nil {
			m.deadlock()
		}
		m.enterCore(c)
		th := c.cur
		th.state = tsRunning
		th.grant <- struct{}{}
		if v := <-m.done; v != nil {
			// A thread goroutine panicked (protocol invariant, user bug,
			// deadlock mid-run): re-panic on the Run caller's goroutine,
			// exactly as the legacy scheduler loop would.
			panic(v)
		}
	}
	var makespan mem.Cycle
	for _, c := range m.cores {
		if c.time > makespan {
			makespan = c.time
		}
	}
	return makespan
}
