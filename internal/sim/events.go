package sim

import (
	"fmt"

	"tokentm/internal/attr"
	"tokentm/internal/mem"
)

// The scheduler. There is one engine; Run and RunChoosing both use it.
//
// Every core caches its next event time (readyKeys, maintained incrementally
// by refreshReady at the few points it can change), so picking the next turn
// — the min-(ready time, core id) order the package comment documents — is a
// scan of one flat slice, not a rescan of every core's queues. The scheduler
// runs *on the yielding thread's coroutine*: after a thread finishes a timed
// operation it settles its own result, picks the next core, fast-forwards
// and dispatches it, names that core's thread in Machine.handoff and
// suspends for RunChoosing to resume it — two coroutine switches per
// cross-thread turn, outside the Go scheduler, and none when the next turn
// is its own. A chooser (RunChoosing) is asked before every turn, with the
// cached min-time pick as its default.
//
// Work deferral. Purely local computation (Ctx.Work) charges its attr
// bucket immediately but, when nothing observes turn boundaries, advances
// the core clock lazily at the next shared operation (Thread.flushWork),
// saving the scheduling turn a Work call would otherwise take. This cannot
// reorder any shared-state access: Work touches no shared state, and the
// following operation still waits until its (now later) ready time is the
// global minimum, which is exactly where the undeferred schedule runs it.
// Two things do observe turn boundaries, so Work yields every time under
// either: a quantum (Quantum > 0), whose expiry is checked at the start of a
// turn, and a chooser, which is asked before every turn.
//
// That Work deferral and the cached pick keep the schedule is checked by
// the root package's TestPerTurnLoopMatchesEventEngine (Run against
// RunChoosing returning def, deep-equal observables on a sampled grid), and
// the schedule itself by TestSchedulerGoldens over the full grid,
// preemptive machines included.

// CoreChoice is one schedulable core: the core id and the cycle at which it
// could next run a thread (its clock, or the earliest ready/wake time of a
// queued thread if the core is currently idle).
type CoreChoice struct {
	Core    int
	ReadyAt mem.Cycle
}

// RunChoosing is Run with a chooser asked before every turn. choose gets the
// runnable cores (RunnableCores) and def, the core the default min-(ready,
// id) schedule would run, and returns the core to run next; it may change
// the machine in place before answering (Preempt, say). Returning ok=false
// stops the run, and after that the only thing a caller may do with the
// machine is Kill. choose runs on whichever goroutine holds the turn — the
// caller's for the first turn, a simulated thread's coroutine after that —
// never on two at once. A nil choose runs the default schedule. A thread's
// panic leaves RunChoosing, on the caller, once the other threads are killed.
func (m *Machine) RunChoosing(choose func(choices []CoreChoice, def int) (core int, ok bool)) mem.Cycle {
	if m.HTM == nil {
		panic("sim: SetHTM before Run")
	}
	returned := false
	defer func() {
		if !returned {
			m.Kill()
		}
	}()
	m.choose = choose
	for _, c := range m.cores {
		m.refreshReady(c)
	}
	m.advance(nil, true)
	for m.handoff != nil {
		th := m.handoff
		m.handoff = nil
		th.resume()
	}
	returned = true
	var makespan mem.Cycle
	for _, c := range m.cores {
		if c.time > makespan {
			makespan = c.time
		}
	}
	return makespan
}

// yield ends the thread's turn: it settles the turn's result on the thread's
// own coroutine, then advances the machine.
func (th *Thread) yield(r opResult) {
	th.flushWork()
	m := th.m
	c := th.core
	c.time += r.lat
	m.settle(c, th, r)
	m.refreshReady(c)
	m.advance(th, r.finished)
}

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
	m.advance(th, false)
}

// advance picks the next turn, dispatches its core, and passes the baton by
// naming its thread in m.handoff. When the next turn belongs to prev it
// simply returns — no switch. When prev has finished (or is nil, at the
// start of a run) the caller unwinds to the driver. Otherwise prev suspends
// until its next turn, or until Kill when the chooser stopped the run.
func (m *Machine) advance(prev *Thread, finished bool) {
	if m.live == 0 {
		return
	}
	if c := m.next(); c != nil {
		m.enterCore(c)
		next := c.cur
		next.state = tsRunning
		if next == prev {
			return
		}
		m.handoff = next
	}
	if finished {
		return
	}
	if !prev.suspend(struct{}{}) {
		panic(killSignal{})
	}
}

// next returns the core whose turn comes next: the min-(ready, id) core, or
// the chooser's answer when there is a chooser. It returns nil when the
// chooser stops the run.
func (m *Machine) next() *coreState {
	c := m.pickReadyCore()
	if c == nil {
		m.deadlock()
	}
	if m.choose == nil {
		return c
	}
	core, ok := m.choose(m.RunnableCores(), c.id)
	if !ok {
		return nil
	}
	return m.cores[core]
}

// enterCore fast-forwards an idle core to its ready time (charged as
// barrier/scheduler wait) and dispatches a thread onto it.
func (m *Machine) enterCore(c *coreState) {
	t, ok := m.coreReadyTime(c)
	if !ok {
		panic(fmt.Sprintf("sim: core %d has nothing to run", c.id))
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
// whenever c's schedulability changes: after a turn settles on c, when a
// lock handoff moves a thread onto c's run queue, and on Preempt. The time
// is cached packed as ready<<readyShift | id so the picker's min-scan walks
// one flat uint64 slice and the (ready, id) tie-break is a single integer
// compare.
//
//tokentm:allocfree
func (m *Machine) refreshReady(c *coreState) {
	if t, ok := m.coreReadyTime(c); ok {
		m.readyKeys[c.id] = uint64(t)<<m.readyShift | uint64(c.id)
	} else {
		m.readyKeys[c.id] = notReady
	}
}

// pickReadyCore is the scheduling policy: the core with the smallest cached
// ready time, ties broken by the lower core id, or nil when no core can run.
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
