package sim

import (
	"tokentm/internal/attr"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
)

// Operation costs for OS-level primitives.
const (
	// LockCycles is the cost of an uncontended lock or unlock operation.
	LockCycles mem.Cycle = 50
	// SyscallEntryCycles is the trap overhead of a blocking system call,
	// charged before the thread blocks.
	SyscallEntryCycles mem.Cycle = 300
)

// Ctx is a thread's interface to the simulated machine. All methods must be
// called from the thread's own closure.
type Ctx struct {
	th        *Thread
	xactDepth int

	// Cycle attribution (attr): pend, when non-nil, is the breakdown frame
	// of the in-flight transaction attempt. In-attempt buckets
	// (begin/useful/memory stall) accumulate there and are merged into the
	// core's breakdown on commit — or reclassified as attr.Wasted on abort.
	// pend is nil or &atomPend, storage reused across attempts, so charging
	// allocates nothing.
	pend     *attr.Breakdown
	atomPend attr.Breakdown
}

// abortSignal unwinds a transaction body back to Atomic on abort.
type abortSignal struct{}

// Now returns the thread's core-local clock, including local work Work has
// deferred but not yet applied (so time never appears to run backwards
// across a Work call).
func (tc *Ctx) Now() mem.Cycle { return tc.th.core.time + tc.th.deferred }

// Core returns the core the thread runs on.
func (tc *Ctx) Core() int { return tc.th.core.id }

// charge attributes n cycles the thread is about to yield: in-attempt
// buckets go to the pending attempt frame (when one is active), everything
// else straight to the core's breakdown. Every yield must charge exactly its
// latency — the conservation invariant audits this.
func (tc *Ctx) charge(k attr.Bucket, n mem.Cycle) {
	if tc.pend != nil && k.InAttempt() {
		tc.pend.Charge(k, n)
		return
	}
	tc.th.m.charge(tc.th.core.id, k, n)
}

// beginAttempt activates atomPend as the pending attempt breakdown.
func (tc *Ctx) beginAttempt() {
	tc.atomPend.Reset()
	tc.pend = &tc.atomPend
}

// commitAttempt merges the pending frame into the core's breakdown (the
// attempt's work stands) and deactivates it.
func (tc *Ctx) commitAttempt() {
	tc.th.m.breakdowns[tc.th.core.id].Merge(tc.pend)
	tc.pend = nil
}

// abortAttempt reclassifies the pending frame's cycles as wasted work and
// deactivates it.
func (tc *Ctx) abortAttempt() {
	tc.th.m.charge(tc.th.core.id, attr.Wasted, tc.pend.Total())
	tc.pend = nil
}

// workFlushThreshold bounds how much local work Ctx.Work defers before
// forcing a scheduling point. Deferral is invisible to thread bodies that
// communicate only through simulated memory, but a body spinning on plain Go
// state written by another simulated thread (say, waiting for a setup
// thread) needs Work to eventually yield the machine. The threshold is far
// above any Work run the workloads perform between shared operations, so
// the forced flush never fires on the benchmark grid.
const workFlushThreshold mem.Cycle = 1 << 16

// Work advances the thread's clock by n cycles of local computation. When
// nothing observes turn boundaries — no quantum and no chooser — the clock
// advance is deferred to the next shared operation (it cannot affect any
// other thread until then), saving a scheduling turn; otherwise Work takes
// its own turn (events.go).
func (tc *Ctx) Work(n mem.Cycle) {
	if n == 0 {
		return
	}
	tc.charge(attr.Useful, n)
	if m := tc.th.m; m.cfg.Quantum == 0 && m.choose == nil {
		tc.th.deferred += n
		if tc.th.deferred >= workFlushThreshold {
			tc.th.flushWork()
		}
		return
	}
	tc.th.yield(opResult{lat: n})
}

// Load reads the word at addr. Outside a transaction this is a
// strongly-atomic non-transactional access; inside Atomic it joins the
// transaction's read set.
func (tc *Ctx) Load(addr mem.Addr) uint64 {
	th := tc.th
	th.flushWork()
	for retries := 0; ; retries++ {
		v, acc := th.m.HTM.Load(th.H, addr, retries)
		switch acc.Outcome {
		case htm.OK:
			tc.setStalling(false)
			tc.charge(attr.ReadStall, acc.Latency)
			th.yield(opResult{lat: acc.Latency})
			return v
		case htm.Stall:
			tc.setStalling(true)
			tc.stall(acc.Latency, th.m.backoff(retries))
		case htm.AbortSelf:
			tc.setStalling(false)
			tc.charge(attr.ConflictStall, acc.Latency)
			th.yield(opResult{lat: acc.Latency})
			panic(abortSignal{})
		}
	}
}

// stall charges and yields one conflict stall-retry: the contention-manager
// trap plus the randomized backoff before the retry. Both buckets survive an
// eventual abort — the paper stacks conflict time separately from wasted
// work.
func (tc *Ctx) stall(trap, backoff mem.Cycle) {
	tc.charge(attr.ConflictStall, trap)
	tc.charge(attr.StallBackoff, backoff)
	tc.th.yield(opResult{lat: trap + backoff})
}

// setStalling maintains the deadlock-detection flag the timestamp policy
// consults (LogTM's "waiting and wanted" rule).
func (tc *Ctx) setStalling(v bool) {
	if x := tc.th.H.Xact; x != nil {
		x.Stalling = v
	}
}

// Store writes the word at addr (see Load for transactional semantics).
func (tc *Ctx) Store(addr mem.Addr, val uint64) {
	th := tc.th
	th.flushWork()
	for retries := 0; ; retries++ {
		acc := th.m.HTM.Store(th.H, addr, val, retries)
		switch acc.Outcome {
		case htm.OK:
			tc.setStalling(false)
			tc.charge(attr.WriteStall, acc.Latency)
			th.yield(opResult{lat: acc.Latency})
			return
		case htm.Stall:
			tc.setStalling(true)
			tc.stall(acc.Latency, th.m.backoff(retries))
		case htm.AbortSelf:
			tc.setStalling(false)
			tc.charge(attr.ConflictStall, acc.Latency)
			th.yield(opResult{lat: acc.Latency})
			panic(abortSignal{})
		}
	}
}

// Tx is the transactional view handed to an Atomic body.
type Tx struct{ tc *Ctx }

// Load reads addr within the transaction.
func (tx *Tx) Load(addr mem.Addr) uint64 { return tx.tc.Load(addr) }

// Store writes addr within the transaction.
func (tx *Tx) Store(addr mem.Addr, val uint64) { tx.tc.Store(addr, val) }

// Work models computation inside the transaction.
func (tx *Tx) Work(n mem.Cycle) { tx.tc.Work(n) }

// Now returns the core-local clock.
func (tx *Tx) Now() mem.Cycle { return tx.tc.Now() }

// Atomic runs fn as a transaction, retrying on abort with randomized
// exponential backoff. Nested calls flatten into the outer transaction
// (closed nesting by subsumption).
func (tc *Ctx) Atomic(fn func(*Tx)) {
	if tc.xactDepth > 0 {
		tc.xactDepth++
		defer func() { tc.xactDepth-- }()
		fn(&Tx{tc: tc})
		return
	}
	th := tc.th
	th.flushWork()
	// Reuse one Xact (and, via Reset, its token index and read/write-set
	// storage) per thread across transactions: records copy scalars out
	// before Atomic returns, so nothing references it afterwards.
	x := th.xactScratch
	if x == nil {
		x = new(htm.Xact)
		th.xactScratch = x
	}
	x.TID = th.H.TID
	x.Core = th.core.id
	x.Timestamp = tc.Now()
	for attempt := 1; ; attempt++ {
		x.Reset()
		x.Attempts = attempt
		x.Core = th.core.id
		x.BeginTime = tc.Now()
		th.H.Xact = x
		tc.beginAttempt()
		beginLat := th.m.HTM.Begin(th.H, tc.Now())
		tc.charge(attr.Begin, beginLat)
		th.yield(opResult{lat: beginLat})

		committed := tc.runBody(fn)
		// The body may end with deferred local work; flush it before the
		// commit/abort HTM call so shared state advances in schedule order.
		th.flushWork()
		if committed && !x.AbortRequested {
			lat, fast := th.m.HTM.Commit(th.H)
			// Record before yielding the turn: commit mutations have
			// just been applied, so m.Commits is in true serialization
			// (commit) order across threads.
			rec := htm.CommitRecord{
				Thread:      th.H.ID,
				ReadBlocks:  len(x.ReadSet),
				WriteBlocks: len(x.WriteSet),
				Duration:    tc.Now() + lat - x.BeginTime,
				Fast:        fast,
				LogStall:    x.LogStall,
			}
			if !fast {
				rec.ReleaseCycles = lat
			}
			th.m.Commits = append(th.m.Commits, rec)
			th.H.Xact = nil
			tc.commitAttempt()
			tc.charge(attr.Commit, lat)
			th.yield(opResult{lat: lat})
			return
		}

		// Abort: unroll, back off, retry with the original timestamp.
		lat := th.m.HTM.Abort(th.H)
		tc.abortAttempt()
		tc.recordAbort(x, attempt)
		th.H.Xact = nil
		bo := th.m.abortBackoff(attempt)
		tc.charge(attr.LogUnroll, lat)
		tc.charge(attr.AbortBackoff, bo)
		th.yield(opResult{lat: lat + bo})
	}
}

// recordAbort appends the abort-lifecycle record for one aborted attempt of
// x, consuming the attribution the contention manager left on it.
func (tc *Ctx) recordAbort(x *htm.Xact, attempt int) {
	th := tc.th
	th.m.AbortRecs = append(th.m.AbortRecs, htm.AbortRecord{
		Thread:  th.H.ID,
		TID:     x.TID,
		Attempt: attempt,
		Enemy:   x.AbortedBy,
		Block:   x.AbortBlock,
		Kind:    x.AbortKind,
	})
}

// runBody executes the transaction body, converting an abort unwind into a
// false return.
func (tc *Ctx) runBody(fn func(*Tx)) (committed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				panic(r)
			}
			committed = false
		}
	}()
	tc.xactDepth = 1
	defer func() { tc.xactDepth = 0 }()
	fn(&Tx{tc: tc})
	return true
}

// Lock acquires a simulated OS mutex, blocking (and freeing the core for
// another thread) if it is held.
func (tc *Ctx) Lock(id int) {
	tc.charge(attr.Barrier, LockCycles)
	tc.th.yield(opResult{lat: LockCycles, wantLock: true, lockWait: id})
}

// Unlock releases a mutex held by this thread, waking the first waiter.
func (tc *Ctx) Unlock(id int) {
	tc.charge(attr.Barrier, LockCycles)
	tc.th.yield(opResult{lat: LockCycles, doUnlock: true, unlock: id})
}

// Syscall models a blocking system call of the given duration: the thread
// traps, blocks, and its core may context-switch to another thread.
func (tc *Ctx) Syscall(duration mem.Cycle) {
	tc.charge(attr.Barrier, SyscallEntryCycles)
	tc.th.yield(opResult{lat: SyscallEntryCycles, sleep: duration})
}
