// Package sim is the execution-driven CMP simulator: it runs Go closures as
// software threads on simulated cores, advancing a per-core cycle clock
// through the memory system and HTM models.
//
// Scheduling uses min-time ordering: the scheduler always resumes the core
// with the smallest local clock (ties broken by core id), which yields a
// deterministic, causally consistent interleaving. Threads execute one timed
// operation per turn and pass the turn on as a baton (events.go). Each
// thread is a coroutine (iter.Pull) that Run resumes and the thread
// suspends, so exactly one runs at a time, a switch never enters the Go
// scheduler, and no model state needs locking. The paper's error bars come
// from pseudo-randomly perturbed simulations; the Seed configuration
// reproduces that by jittering conflict backoffs.
package sim

import (
	"fmt"
	"iter"
	"math/bits"
	"math/rand"

	"tokentm/internal/randstream"

	"tokentm/internal/attr"
	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/tmlog"
)

// LogRegionBase is where per-thread transaction logs live in the simulated
// physical address space, far above workload heaps.
const LogRegionBase mem.Addr = 1 << 40

// LogRegionStride separates consecutive threads' logs.
const LogRegionStride mem.Addr = 1 << 24

// Config parameterizes a machine.
type Config struct {
	// Cores is the number of simulated cores (default 32, as in §6.1).
	Cores int
	// Seed drives backoff jitter; distinct seeds model the paper's
	// perturbed runs.
	Seed int64
	// Quantum, if nonzero, preempts a thread after it has run this many
	// cycles while other threads wait on its core (used by the
	// lock-based server workloads; TM workloads run one thread per core
	// and never switch, matching Table 5's note).
	Quantum mem.Cycle
}

// ThreadFunc is the body of a simulated thread.
type ThreadFunc func(tc *Ctx)

// threadState is a thread's scheduler state.
type threadState int

const (
	tsRunnable threadState = iota
	tsRunning
	tsBlockedTime // sleeping until wakeAt (syscall)
	tsWaitingLock
	tsFinished
)

// String names the scheduler state (deadlock reports must be actionable).
func (s threadState) String() string {
	switch s {
	case tsRunnable:
		return "runnable"
	case tsRunning:
		return "running"
	case tsBlockedTime:
		return "blocked-time"
	case tsWaitingLock:
		return "waiting-lock"
	case tsFinished:
		return "finished"
	default:
		panic("sim: unknown thread state")
	}
}

// opResult is what a thread's turn did, settled at the end of the turn.
type opResult struct {
	lat      mem.Cycle
	sleep    mem.Cycle // additional blocked time after lat (syscall)
	lockWait int       // lock id to wait on (with wantLock=true)
	wantLock bool
	unlock   int
	doUnlock bool
	finished bool
}

// Thread is one simulated software thread.
type Thread struct {
	H    *htm.Thread
	m    *Machine
	core *coreState
	fn   ThreadFunc

	// resume (RunChoosing) runs the thread's coroutine to its next suspend
	// or its end; suspend, on the coroutine, hands control back; stop (Kill)
	// makes a pending suspend return false, or ends an unstarted thread.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()

	state   threadState
	wakeAt  mem.Cycle
	readyAt mem.Cycle
	// deferred accumulates Ctx.Work cycles not yet applied to the core
	// clock; flushed by flushWork before the thread's next shared
	// operation.
	deferred mem.Cycle
	// xactScratch is the thread's reusable top-level transaction record;
	// see Ctx.Atomic.
	xactScratch *htm.Xact

	// Commits collects this thread's committed transactions.
	Commits []htm.CommitRecord
	// AbortCount counts aborted attempts.
	AbortCount int
	// AbortRecs collects this thread's abort-lifecycle records, one per
	// aborted attempt (len(AbortRecs) == AbortCount).
	AbortRecs []htm.AbortRecord
}

type coreState struct {
	id          int
	time        mem.Cycle
	cur         *Thread
	lastRan     *Thread
	scheduledAt mem.Cycle
	runq        []*Thread
	blocked     []*Thread
}

type lockState struct {
	held    bool
	holder  *Thread
	waiters []*Thread
}

// Machine is the simulated CMP.
type Machine struct {
	cfg     Config
	Mem     *coherence.MemSys
	Store   *mem.Store
	HTM     htm.System
	threads []*Thread
	cores   []*coreState
	locks   map[int]*lockState
	rng     *rand.Rand
	live    int
	// choose is RunChoosing's chooser, nil for the default schedule.
	choose func(choices []CoreChoice, def int) (int, bool)
	// handoff is the thread RunChoosing resumes next, set by advance when
	// the baton leaves the running thread; nil ends the run.
	handoff *Thread
	// readyTree caches each core's next event time for pickReadyCore,
	// packed as time<<readyShift|id (notReady when the core has nothing to
	// run), as a min-tree: node i is the smaller of nodes 2i and 2i+1, the
	// root is node 1, and core id's leaf is node 1<<readyShift + id, with
	// padding leaves past the last core left notReady. Maintained by
	// refreshReady.
	readyTree  []uint64
	readyShift uint
	// rngDraws counts backoff-jitter draws; part of the state fingerprint so
	// two schedules that consumed the rng differently never merge.
	rngDraws uint64
	// choiceScratch backs RunnableCores so a chooser's turns stay
	// allocation-free after the first.
	choiceScratch []CoreChoice
	// Commits aggregates all threads' commit records in commit order.
	Commits []htm.CommitRecord
	// AbortRecs aggregates all threads' abort records in abort order.
	AbortRecs []htm.AbortRecord
	// breakdowns attributes every core-clock advance to an attr.Bucket,
	// indexed by core id. The conservation invariant — per-core bucket sums
	// equal the core clocks — is checked by CheckConservation.
	breakdowns []attr.Breakdown
}

// New builds a machine; attach an HTM system with SetHTM before spawning
// threads.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 32
	}
	m := &Machine{
		cfg:   cfg,
		Mem:   coherence.NewMemSys(cfg.Cores),
		Store: mem.NewStore(),
		locks: make(map[int]*lockState),
		rng:   randstream.New(cfg.Seed),
	}
	m.choiceScratch = make([]CoreChoice, 0, cfg.Cores)
	m.readyShift = uint(bits.Len(uint(cfg.Cores - 1)))
	m.readyTree = make([]uint64, 2<<m.readyShift)
	for i := range m.readyTree {
		m.readyTree[i] = notReady
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &coreState{id: i})
	}
	m.breakdowns = make([]attr.Breakdown, cfg.Cores)
	return m
}

// charge attributes n cycles of core's clock advance to bucket k.
func (m *Machine) charge(core int, k attr.Bucket, n mem.Cycle) {
	m.breakdowns[core].Charge(k, n)
}

// Breakdowns returns a copy of each core's cycle attribution, indexed by
// core id.
func (m *Machine) Breakdowns() []attr.Breakdown {
	out := make([]attr.Breakdown, len(m.breakdowns))
	copy(out, m.breakdowns)
	return out
}

// BreakdownTotal merges every core's attribution into one machine-wide
// breakdown (its Total equals the sum of CoreTimes when conservation holds).
func (m *Machine) BreakdownTotal() attr.Breakdown {
	var total attr.Breakdown
	for i := range m.breakdowns {
		total.Merge(&m.breakdowns[i])
	}
	return total
}

// CheckConservation verifies the cycle-attribution invariant: every core's
// bucket sum equals its clock, so no advance of simulated time escaped
// classification. Call it after Run.
func (m *Machine) CheckConservation() error {
	for i, c := range m.cores {
		if got := m.breakdowns[i].Total(); got != c.time {
			return fmt.Errorf("sim: core %d breakdown sums to %d cycles but clock is %d (%+d unattributed)",
				i, got, c.time, int64(c.time)-int64(got))
		}
	}
	return nil
}

// SetHTM attaches the HTM system (built over m.Mem and m.Store).
func (m *Machine) SetHTM(h htm.System) { m.HTM = h }

// Spawn creates a thread pinned to core threadID % Cores.
func (m *Machine) Spawn(fn ThreadFunc) *Thread {
	id := len(m.threads)
	c := m.cores[id%m.cfg.Cores]
	th := &Thread{
		H: &htm.Thread{
			ID:   id,
			TID:  mem.TID(id + 1),
			Core: c.id,
			Log:  newLog(id),
		},
		m:     m,
		core:  c,
		fn:    fn,
		state: tsRunnable,
	}
	th.resume, th.stop = iter.Pull(func(suspend func(struct{}) bool) {
		th.suspend = suspend
		th.run()
	})
	m.threads = append(m.threads, th)
	c.runq = append(c.runq, th)
	m.HTM.Register(th.H)
	m.live++
	return th
}

// Threads returns the spawned threads.
func (m *Machine) Threads() []*Thread { return m.threads }

// CoreTimes returns each core's local clock, indexed by core id. After Run,
// these are the per-core completion times; identical runs must produce
// identical values (the determinism contract's finest-grained observable).
func (m *Machine) CoreTimes() []mem.Cycle {
	out := make([]mem.Cycle, len(m.cores))
	for i, c := range m.cores {
		out[i] = c.time
	}
	return out
}

// killSignal unwinds a suspended thread that was stopped (Kill).
type killSignal struct{}

func (th *Thread) run() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(killSignal); ok {
			return // Kill: exit without reporting a turn
		}
		// A panic escaped the thread body (protocol invariant failure,
		// user-code bug) or the scheduler running on this coroutine (a
		// deadlock). Retire the thread and let the panic continue:
		// iter.Pull re-raises it out of resume, on whoever called Run.
		if th.state != tsFinished {
			th.core.time += th.deferred
			th.deferred = 0
			th.state = tsFinished
			if th.core.cur == th {
				th.core.cur = nil
			}
			th.m.live--
		}
		panic(r)
	}()
	tc := &Ctx{th: th}
	th.fn(tc)
	if tc.xactDepth != 0 {
		panic(fmt.Sprintf("sim: thread %d finished inside a transaction", th.H.ID))
	}
	th.yield(opResult{finished: true})
}

// Run executes until every thread finishes, returning the makespan: the
// largest core clock (total parallel execution time).
func (m *Machine) Run() mem.Cycle { return m.RunChoosing(nil) }

// RunnableCores reports, in ascending core-id order, every core that can
// run a turn (has a current, queued, or timed-blocked thread) and the cycle
// at which it could do so. The returned slice is scratch storage reused
// across calls — copy it before the next turn if it must persist.
func (m *Machine) RunnableCores() []CoreChoice {
	m.choiceScratch = m.choiceScratch[:0]
	for _, c := range m.cores {
		t, ok := m.coreReadyTime(c)
		if !ok {
			continue
		}
		m.choiceScratch = append(m.choiceScratch, CoreChoice{Core: c.id, ReadyAt: t})
	}
	return m.choiceScratch
}

// CanPreempt reports whether Preempt(core) would change the schedule: the
// core is running a thread and another thread is queued to take its place.
func (m *Machine) CanPreempt(core int) bool {
	c := m.cores[core]
	return c.cur != nil && len(c.runq) > 0
}

// Preempt forces an involuntary context switch on core, exactly as a quantum
// expiry would: the current thread moves to the back of the run queue and the
// next turn on this core dispatches its successor (charging the HTM's
// context-switch work — for TokenTM, the flash-OR of the metastate bits).
// Returns false, changing nothing, when the core has no current thread or no
// waiting successor. A chooser calls it in place, before answering.
func (m *Machine) Preempt(core int) bool {
	if !m.CanPreempt(core) {
		return false
	}
	c := m.cores[core]
	out := c.cur
	out.state = tsRunnable
	out.readyAt = c.time
	c.runq = append(c.runq, out)
	c.cur = nil
	m.refreshReady(c)
	return true
}

// Kill terminates every unfinished thread so an abandoned machine leaks no
// goroutines. It must only be called while no thread holds the turn: after
// Run or RunChoosing returned or panicked (a panicking run has already
// called it; a second Kill finds every thread finished). The machine cannot
// run again afterwards.
func (m *Machine) Kill() {
	for _, th := range m.threads {
		if th.state == tsFinished {
			continue
		}
		th.state = tsFinished
		m.live--
		th.stop()
	}
}

// coreReadyTime computes when core c can next run something.
func (m *Machine) coreReadyTime(c *coreState) (mem.Cycle, bool) {
	t := c.time
	if c.cur != nil {
		return t, true
	}
	best, ok := mem.Cycle(0), false
	for _, th := range c.runq {
		rt := t
		if th.readyAt > rt {
			rt = th.readyAt
		}
		if !ok || rt < best {
			best, ok = rt, true
		}
	}
	for _, th := range c.blocked {
		if th.state != tsBlockedTime {
			continue
		}
		rt := th.wakeAt
		if rt < t {
			rt = t
		}
		if !ok || rt < best {
			best, ok = rt, true
		}
	}
	return best, ok
}

// dispatch ensures core c has a current thread, performing a context switch
// if a different thread is scheduled in.
func (m *Machine) dispatch(c *coreState) {
	// Wake timed-blocked threads whose deadline passed.
	kept := c.blocked[:0]
	for _, th := range c.blocked {
		if th.state == tsBlockedTime && th.wakeAt <= c.time {
			th.state = tsRunnable
			th.readyAt = th.wakeAt
			c.runq = append(c.runq, th)
			continue
		}
		kept = append(kept, th)
	}
	c.blocked = kept

	if c.cur != nil {
		// Preempt if the quantum expired and others are waiting.
		if m.cfg.Quantum > 0 && len(c.runq) > 0 && c.time-c.scheduledAt >= m.cfg.Quantum {
			out := c.cur
			out.state = tsRunnable
			out.readyAt = c.time
			c.runq = append(c.runq, out)
			c.cur = nil
		} else {
			return
		}
	}
	if len(c.runq) == 0 {
		// Only timed-blocked threads: fast-forward to the earliest.
		var next *Thread
		for _, th := range c.blocked {
			if th.state == tsBlockedTime && (next == nil || th.wakeAt < next.wakeAt) {
				next = th
			}
		}
		if next == nil {
			m.deadlock()
		}
		if next.wakeAt > c.time {
			m.charge(c.id, attr.Barrier, next.wakeAt-c.time)
			c.time = next.wakeAt
		}
		m.dispatch(c)
		return
	}
	// FIFO among ready threads.
	var in *Thread
	idx := -1
	for i, th := range c.runq {
		if th.readyAt <= c.time && (idx < 0) {
			idx = i
			in = th
		}
	}
	if idx < 0 {
		// All have future readyAt; take the earliest.
		for i, th := range c.runq {
			if in == nil || th.readyAt < in.readyAt {
				in = th
				idx = i
			}
		}
		if in.readyAt > c.time {
			m.charge(c.id, attr.Barrier, in.readyAt-c.time)
			c.time = in.readyAt
		}
	}
	c.runq = append(c.runq[:idx], c.runq[idx+1:]...)
	c.cur = in
	c.scheduledAt = c.time
	if c.lastRan != in {
		if c.lastRan != nil {
			cs := m.HTM.ContextSwitch(c.id, c.lastRan.H, in.H)
			m.charge(c.id, attr.CtxSwitch, cs)
			c.time += cs
		} else {
			m.HTM.RunningOn(c.id, in.H)
		}
	} else {
		m.HTM.RunningOn(c.id, in.H)
	}
	c.lastRan = in
}

// settle applies a thread's op result to scheduler state.
func (m *Machine) settle(c *coreState, th *Thread, r opResult) {
	if r.finished {
		th.state = tsFinished
		c.cur = nil
		m.live--
		return
	}
	if r.doUnlock {
		m.doUnlock(c, th, r.unlock)
	}
	switch {
	case r.wantLock:
		l := m.lock(r.lockWait)
		if !l.held {
			l.held = true
			l.holder = th
			return // keeps running
		}
		l.waiters = append(l.waiters, th)
		th.state = tsWaitingLock
		c.blocked = append(c.blocked, th)
		c.cur = nil
	case r.sleep > 0:
		th.state = tsBlockedTime
		th.wakeAt = c.time + r.sleep
		c.blocked = append(c.blocked, th)
		c.cur = nil
	}
}

func (m *Machine) lock(id int) *lockState {
	l, ok := m.locks[id]
	if !ok {
		l = &lockState{}
		m.locks[id] = l
	}
	return l
}

// doUnlock releases a lock, handing it directly to the first waiter.
func (m *Machine) doUnlock(c *coreState, th *Thread, id int) {
	l := m.lock(id)
	if !l.held || l.holder != th {
		panic(&UnlockError{Thread: th.H.ID, Lock: id})
	}
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = nil
		return
	}
	next := l.waiters[0]
	l.waiters = l.waiters[1:]
	l.holder = next
	next.state = tsRunnable
	next.readyAt = c.time
	// Move from its core's blocked list to the run queue.
	nc := next.core
	for i, b := range nc.blocked {
		if b == next {
			nc.blocked = append(nc.blocked[:i], nc.blocked[i+1:]...)
			break
		}
	}
	nc.runq = append(nc.runq, next)
	// The handoff made next's core schedulable (or sooner); its cached
	// ready time must see it.
	m.refreshReady(nc)
}

// ThreadReport is one live thread's symbolic scheduler state at deadlock.
type ThreadReport struct {
	Thread int       // global thread id
	Core   int       // core the thread is pinned to
	State  string    // symbolic scheduler state (threadState.String)
	Timed  bool      // true when the thread is time-blocked (WakeAt valid)
	WakeAt mem.Cycle // wake deadline, when Timed
}

// DeadlockError reports that no core can make progress. It carries the
// symbolic per-thread state so tools (the schedule explorer, test failures)
// can record it as a structured counterexample; the scheduler still panics
// with it, so existing callers keep failing loudly.
type DeadlockError struct {
	Threads []ThreadReport
}

// Error renders the historical report format: one parenthesized entry per
// live thread with its core, state name and (for timed blocks) wake cycle.
func (e *DeadlockError) Error() string {
	detail := ""
	for _, r := range e.Threads {
		detail += fmt.Sprintf(" thread%d(core=%d state=%s", r.Thread, r.Core, r.State)
		if r.Timed {
			detail += fmt.Sprintf(" wakeAt=%d", r.WakeAt)
		}
		detail += ")"
	}
	return "sim: deadlock —" + detail
}

// UnlockError reports a thread releasing a lock it does not hold.
type UnlockError struct {
	Thread int
	Lock   int
}

func (e *UnlockError) Error() string {
	return fmt.Sprintf("sim: thread %d unlocks lock %d it does not hold", e.Thread, e.Lock)
}

// DeadlockReport builds the typed per-thread report for the machine's
// current unfinished threads. The scheduler panics with it when no core can
// make progress; the schedule explorer calls it directly to record a
// deadlock as a structured counterexample without unwinding.
func (m *Machine) DeadlockReport() *DeadlockError {
	err := &DeadlockError{}
	for _, th := range m.threads {
		if th.state == tsFinished {
			continue
		}
		r := ThreadReport{Thread: th.H.ID, Core: th.core.id, State: th.state.String()}
		if th.state == tsBlockedTime {
			r.Timed = true
			r.WakeAt = th.wakeAt
		}
		err.Threads = append(err.Threads, r)
	}
	return err
}

func (m *Machine) deadlock() {
	panic(m.DeadlockReport())
}

// backoff computes conflict-stall backoff with bounded exponential growth
// and seed-driven jitter (the paper's pseudo-random perturbation).
func (m *Machine) backoff(retries int) mem.Cycle {
	if retries > 6 {
		retries = 6
	}
	base := mem.Cycle(32) << uint(retries)
	m.rngDraws++
	return base + mem.Cycle(m.rng.Intn(int(base)))
}

// abortBackoff is the randomized exponential backoff after an abort. It
// grows much larger than the stall backoff so that a conflict loser stays
// out of the winner's way long enough for it to commit (avoiding the
// dueling-upgrade livelock where the victim immediately re-acquires the
// read token the winner is trying to upgrade).
func (m *Machine) abortBackoff(attempt int) mem.Cycle {
	if attempt > 8 {
		attempt = 8
	}
	base := mem.Cycle(128) << uint(attempt)
	m.rngDraws++
	return base + mem.Cycle(m.rng.Intn(int(base)))
}

func newLog(threadID int) *tmlog.Log {
	return tmlog.New(LogRegionBase + LogRegionStride*mem.Addr(threadID))
}
