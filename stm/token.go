package stm

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// This file is the host port of the token protocol proper: every transition
// is a CAS on the block's 64-bit metastate.PackedWord, whose successor comes
// from metastate's packed transitions (AddReader, ClaimWrite, DropReader):
// load, transition, CAS. Those are the same Table 2/3b rules the simulator
// runs — TestPackedTransitionsMatchMeta in internal/metastate checks each
// against Unpack, the Meta rule and Pack on every canonical word. Visible
// reads acquire one token (fusing into the anonymous reader count when a
// second reader arrives); writes acquire all T tokens; a read-to-write
// upgrade folds the upgrader's own read token into the all-token claim — the
// bug class the simulator's model checker once caught there (double-counting
// the upgrader's token) is pinned here by TestUpgradeFoldsReadToken and the
// race stress suite. What a refusal means (enemy, counter, herd guard, own
// token misuse) is decided here, by the state the transition refused.
//
// The first attempt of a Thread.Atomically, and every attempt of a ReadOnly,
// reads invisibly instead: no token, a stamp check against the attempt's
// read serial rv (read2), the block logged, and the whole read log
// re-validated at commit. A token read is two contended RMWs on a shared
// word; an invisible one is plain loads. What that sells is that such a
// reader no longer holds writers off and can be invalidated by one — once,
// where it matters: every retry of an Atomically, and every stm.Group
// member, reads visibly, so contention degrades to the paper's protocol and
// its eldest-never-doomed progress argument.

// Tx is one transaction attempt's view of a TM. Obtain it inside
// Thread.Atomically or Thread.ReadOnly; it is invalid outside fn.
type Tx struct {
	th *Thread
	ro bool // Thread.ReadOnly: Store/LoadW panic, commit returns rv
	// finished marks an attempt whose tokens are already returned (committed
	// or aborted); Group recovery consults it so a member whose own retry()
	// already rolled back is not double-aborted.
	finished bool
	// visible says this attempt's reads take tokens. Clear on the first
	// attempt of an Atomically and every attempt of a ReadOnly, whose reads are
	// stamp-validated against rv and logged; writes claim tokens either way.
	visible bool
	rv      uint64 // read serial of an invisible attempt
	logs    txLogs
}

// Load returns the word at a. A visible attempt acquires a read token for
// the block on first touch; an invisible one validates the block's stamp
// against rv and logs it. A lost conflict unwinds the attempt (retrySignal).
func (tx *Tx) Load(a Addr) uint64 {
	v, _ := tx.read2(a, a, 0, bindAlways)
	return v
}

// Load2 returns the words at a1 and a2, which must lie in the same block —
// the common "adjacent fields of one record" shape. It costs one token
// acquisition (or one stamp validation) instead of two Loads.
func (tx *Tx) Load2(a1, a2 Addr) (uint64, uint64) {
	if uint32(a1)>>tx.th.tm.shift != uint32(a2)>>tx.th.tm.shift {
		spanPanic(a1, a2)
	}
	return tx.read2(a1, a2, 0, bindAlways)
}

// Lookup2 is Load2 with a guard: it returns the words at a1 and a2 (one
// block), and the read joins the footprint only if the guard word g at a1 is
// guard or zero. Any other g comes back with no token, no log entry and no
// stamp test, and v means nothing. The caller must guarantee that its
// outcome is insensitive to concurrent commits to a block it passes over that
// way — in practice that the guard word is write-once, like a hash-table key
// in an insert-only table: once a committed probe sees it nonzero it is
// immutable, so probing past it needs no conflict detection. A match and an
// empty guard are order-sensitive observations and are bound like any Load2.
// On a visible attempt the pair returned is the one re-read under the token,
// so g can be a foreign key that won the slot in between: probe on.
func (tx *Tx) Lookup2(a1, a2 Addr, guard uint64) (g, v uint64) {
	if uint32(a1)>>tx.th.tm.shift != uint32(a2)>>tx.th.tm.shift {
		spanPanic(a1, a2)
	}
	return tx.read2(a1, a2, guard, bindMatch)
}

// What a read does with the pair it finds on a block the attempt holds no
// token on.
const (
	bindAlways = iota // Load, Load2: the read joins the footprint
	bindMatch         // Lookup2: unless the word at a1 is a key other than guard
	bindNever         // Upsert2's peek: the claim that follows is the footprint
)

// read2 is the body of every transactional read. A block a visible attempt
// holds a read token on (its read set says so) is its to read, and a visible
// attempt that is sure to bind takes its read token at once (readByToken).
// Everything else is the one tokenless transactional read, a seqlock pass
// over the block: it must show no writer, and still carry the same stamp
// writer-free after the data loads (unwritten). A block whose token word
// shows (T, self) is this attempt's own write and is read as it stands. A
// foreign writer is a conflict like any other (spin, doom the younger, give
// up after spinLimit). A pair that is not to be bound is returned there:
// committed, with no footprint. Binding on a visible attempt is readByToken.
// On an invisible one the stamp must be at most rv; a stamp past rv asks
// extend to move rv forward, which aborts the attempt if any logged read has
// been overwritten, and the pass goes round again so that its second look at
// the token word follows the new rv. The block is logged, for commitAttempt
// to re-validate, and takes no token; an invisible attempt keeps no set, so
// a block it reads twice is logged twice.
func (tx *Tx) read2(a1, a2 Addr, guard uint64, bind int) (uint64, uint64) {
	th := tx.th
	b := uint32(a1) >> th.tm.shift
	if tx.visible {
		if th.reads.has(b) {
			return th.tm.dataw(a1).Load(), th.tm.dataw(a2).Load()
		}
		if bind == bindAlways {
			return tx.readByToken(b, a1, a2)
		}
	}
	w := th.tm.metaw(b)
	for spin := 0; ; spin++ {
		if th.doomed() {
			tx.retry(&th.stats.DoomedAborts)
		}
		w1 := metastate.PackedWord(w.Load())
		if p := w1.Packed(); p.State() == metastate.StateWriteT {
			if mem.TID(p.Attr()) == th.tid {
				return th.tm.dataw(a1).Load(), th.tm.dataw(a2).Load()
			}
			tx.conflict(mem.TID(p.Attr()), &th.stats.ConflictWriter, spin)
			continue
		}
		v1 := th.tm.dataw(a1).Load()
		v2 := th.tm.dataw(a2).Load()
		if !unwritten(w1, metastate.PackedWord(w.Load())) {
			continue
		}
		if bind == bindNever || bind == bindMatch && v1 != guard && v1 != 0 {
			return v1, v2
		}
		if tx.visible {
			return tx.readByToken(b, a1, a2)
		}
		if w1.Stamp() > tx.rv {
			tx.extend()
			continue
		}
		tx.logs.read = append(tx.logs.read, b)
		return v1, v2
	}
}

// readByToken is the visible read of a block this attempt holds no read
// token on: one read token, added to the read set and logged for releaseAll
// to return — unless the block turns out to be the attempt's own write,
// which it reads as it stands.
func (tx *Tx) readByToken(b uint32, a1, a2 Addr) (uint64, uint64) {
	th := tx.th
	if tx.acquireRead(b) {
		th.reads.add(b)
		tx.logs.read = append(tx.logs.read, b)
	}
	return th.tm.dataw(a1).Load(), th.tm.dataw(a2).Load()
}

// unwritten reports whether block data read between two loads of its token
// word, the first of which (w1) showed no writer, is stable: the word is
// unchanged, or it still carries w1's stamp and no writer. Reader tokens of
// visible transactions come and go under a tokenless read; they preserve
// the stamp and never guard a data change, whereas every release that
// follows a data store installs a fresh serial.
func unwritten(w1, w2 metastate.PackedWord) bool {
	return w2 == w1 || w2.Stamp() == w1.Stamp() && w2.Packed().State() != metastate.StateWriteT
}

// extend moves an invisible attempt's read serial forward to the current
// clock, provided every logged read still stands at the old one; otherwise
// the attempt aborts. The clock is sampled before the walk, so a writer that
// claims a validated block afterwards draws a serial past the new rv.
func (tx *Tx) extend() {
	nrv := tx.th.tm.serial.Load()
	if !tx.readsValid() {
		tx.retry(&tx.th.stats.ConflictAborts)
	}
	tx.rv = nrv
}

// readsValid reports whether every block in the read log is unwritten since
// this invisible attempt read it: no foreign writer, and a stamp at most rv.
// The stamp test is exact — a writer that acquired the block after our read
// drew its serial (commit, abort stamp, or Upsert2) under the claim, hence
// after rv was sampled. Blocks this attempt went on to write pass the same
// test: the claim keeps the stamp it found, which acquireWrite checked.
func (tx *Tx) readsValid() bool {
	th := tx.th
	for _, b := range tx.logs.read {
		w := metastate.PackedWord(th.tm.metaw(b).Load())
		if w.Stamp() > tx.rv {
			return false
		}
		if p := w.Packed(); p.State() == metastate.StateWriteT && mem.TID(p.Attr()) != th.tid {
			return false
		}
	}
	return true
}

// spanPanic is outlined so Load2's inlining budget is not spent on the
// error path's formatting.
func spanPanic(a1, a2 Addr) {
	panic(fmt.Sprintf("stm: Load2 addresses %d and %d span blocks", a1, a2))
}

// Store writes v to a, acquiring all of the block's tokens on first write.
// A block previously read by this transaction takes the upgrade path.
//
// This is the canonical write path: claim the block's tokens, log the old
// value, then store. TestWritePathsClaimBeforeStoring pins the claim before
// the store; the rollback tests (TestErrorRollsBack,
// TestMaxAttemptsSurfacesErrAborted) pin the log before it.
func (tx *Tx) Store(a Addr, v uint64) {
	th := tx.th
	if tx.ro {
		panic("stm: Store inside a read-only transaction")
	}
	tx.writeAcquire(uint32(a) >> th.tm.shift)
	tx.logs.undo = append(tx.logs.undo, undoEnt{addr: a, old: th.tm.dataw(a).Load()})
	th.tm.dataw(a).Store(v)
}

// LoadW returns the word at a after acquiring the block's write tokens — the
// "read a word I am about to overwrite" shape. Unlike Load+Store it never
// takes the read-token detour, so a blind update costs one acquisition.
func (tx *Tx) LoadW(a Addr) uint64 {
	th := tx.th
	if tx.ro {
		panic("stm: LoadW inside a read-only transaction")
	}
	tx.writeAcquire(uint32(a) >> th.tm.shift)
	return th.tm.dataw(a).Load()
}

// writeAcquire ensures this transaction holds block b's write tokens,
// upgrading a held read token (fold-in, counted in Upgrades) or acquiring
// fresh; a block already written is left as it is. An invisible read left no
// token to fold in, so its upgrade is a fresh claim and not an Upgrade.
func (tx *Tx) writeAcquire(b uint32) {
	th := tx.th
	haveRead := tx.visible && th.reads.has(b)
	if !tx.acquireWrite(b, haveRead) {
		return // already the writer
	}
	tx.logs.write = append(tx.logs.write, b)
	if haveRead {
		bump(&th.stats.Upgrades)
	}
}

// Upsert2 is the claim-or-skip write of a guarded record — Thread.Upsert2
// as one step of a transaction. If the guard word at a1 is k1 or zero it
// installs k1 at a1 and v2 at a2 (one block) under the block's write tokens
// and reports true. Any other guard value is a key some other transaction
// committed there, under Lookup2's write-once contract: nothing is written
// and the caller probes on. A committed foreign key is skipped on a peek,
// with no token taken. Otherwise the decision is made again under the claim,
// where the guard can turn out to hold a foreign key that won the slot in
// between; the surplus claim is then released with the transaction.
//
// Like Store it claims, logs, then stores. TestWritePathsClaimBeforeStoring
// pins the claim before the stores; TestTxUpsert2ClaimAndSkip and
// TestTxUpsert2UpgradeOnRetry pin the logs before them.
func (tx *Tx) Upsert2(a1, a2 Addr, k1, v2 uint64) (claimed bool) {
	th := tx.th
	if tx.ro {
		panic("stm: Upsert2 inside a read-only transaction")
	}
	b := uint32(a1) >> th.tm.shift
	if uint32(a2)>>th.tm.shift != b {
		spanPanic(a1, a2)
	}
	if g, _ := tx.read2(a1, a2, 0, bindNever); g != k1 && g != 0 {
		return false
	}
	tx.writeAcquire(b)
	switch g := th.tm.dataw(a1).Load(); g {
	case 0:
		tx.logs.undo = append(tx.logs.undo, undoEnt{addr: a1, old: 0})
		th.tm.dataw(a1).Store(k1)
	case k1:
	default:
		return false
	}
	tx.logs.undo = append(tx.logs.undo, undoEnt{addr: a2, old: th.tm.dataw(a2).Load()})
	th.tm.dataw(a2).Store(v2)
	return true
}

// Snapshot2 reads the words at a1 and a2 — which must lie in one block — at
// a consistent committed snapshot, without starting a transaction: the
// point-read fast path. The returned serial is the block's writer-release
// stamp, a commit serial at which exactly the observed values were current;
// a single-block read-only transaction at that serial would return the same
// values, so journals mixing Snapshot2 reads with transactional commits
// still replay serializably. An in-flight writer is waited out (bounded
// yields, never parking). Must not be called from inside a transaction on
// the same Thread that has written the block — the wait would spin on the
// caller's own write token; the cold path panics on that misuse.
// The body is split so the common case is a loop-free first try (four plain
// atomic loads), not so that it inlines: it does not (cost 251, budget 80).
// One loop was measured and cost inproc-point's p50 3-8 % (EXPERIMENTS.md).
func (th *Thread) Snapshot2(a1, a2 Addr) (v1, v2, serial uint64) {
	tm := th.tm
	if uint32(a1^a2)>>tm.shift != 0 {
		spanPanic(a1, a2)
	}
	w := tm.metaw(uint32(a1) >> tm.shift)
	w1 := w.Load()
	if metastate.PackedWord(w1).Packed().State() != metastate.StateWriteT {
		v1 = tm.dataw(a1).Load()
		v2 = tm.dataw(a2).Load()
		if w.Load() == w1 {
			return v1, v2, metastate.PackedWord(w1).Stamp()
		}
	}
	return th.snapshot2Slow(a1, a2)
}

func (th *Thread) snapshot2Slow(a1, a2 Addr) (v1, v2, serial uint64) {
	tm := th.tm
	b := uint32(a1) >> tm.shift
	w := tm.metaw(b)
	for spin := 0; ; spin++ {
		w1 := metastate.PackedWord(w.Load())
		if p := w1.Packed(); p.State() == metastate.StateWriteT {
			if mem.TID(p.Attr()) == th.tid {
				panic(fmt.Sprintf("stm: Snapshot2 of block %d inside thread %d's own write transaction", b, th.tid))
			}
			bump(&th.stats.ConflictWriter)
			spinWait(spin, &th.rng)
			continue
		}
		v1 = tm.dataw(a1).Load()
		v2 = tm.dataw(a2).Load()
		if unwritten(w1, metastate.PackedWord(w.Load())) {
			return v1, v2, w1.Stamp()
		}
	}
}

// NoteCommit records one committed non-transactional operation — a
// point-read composed of Snapshot2 calls — in the thread's statistics, so
// stores built on the fast path keep Commits comparable with Txn counts.
func (th *Thread) NoteCommit() {
	bump(&th.stats.Commits)
	bump(&th.stats.SnapshotCommits)
}

// Upsert2 is the point-write fast path: a complete single-block
// claim-or-skip transaction in one call — the shape a hash-table insert or
// blind update needs, and the host analog of the paper's flash release for
// minimal write sets. It takes all T tokens on a1's block, re-reads the
// guard word at a1 under the claim, and if that word equals k1 or zero
// installs k1 at a1 and v2 at a2 and commits, stamping the drawn serial
// into the release. Any other guard value means a concurrent claim
// committed first: the untouched block is released with its stamp
// unchanged and claimed is false so the caller can probe on.
//
// The calling thread must hold no other tokens — the call waits out
// readers and writers instead of aborting, which is deadlock-free only
// when this one block is the whole footprint. Calling it inside the
// thread's own open transaction panics where detectable (the thread is
// the identified holder).
//
// Upsert2 is a write path with a deliberate exception to the claim/log
// discipline: the claim is the direct full-token CompareAndSwap above each
// store (not writeAcquire), and no undo entries are appended because the
// path either commits in place or backs out having written nothing. The
// comments at the two stores below record that argument.
func (th *Thread) Upsert2(a1, a2 Addr, k1, v2 uint64) (claimed bool, serial uint64) {
	tm := th.tm
	b := uint32(a1) >> tm.shift
	if uint32(a2)>>tm.shift != b {
		spanPanic(a1, a2)
	}
	w := tm.metaw(b)
	for spin := 0; ; spin++ {
		old := metastate.PackedWord(w.Load())
		p := old.Packed()
		np, ok := p.ClaimWrite(th.tid, 0)
		if !ok || np == p { // np == p: (T, self), the misuse below
			switch p.State() {
			case metastate.StateAnon:
				bump(&th.stats.ConflictReader)
			case metastate.StateRead1, metastate.StateWriteT:
				if mem.TID(p.Attr()) == th.tid {
					panic(fmt.Sprintf("stm: Upsert2 of block %d inside thread %d's own transaction", b, th.tid))
				}
				if p.State() == metastate.StateWriteT {
					bump(&th.stats.ConflictWriter)
				} else {
					bump(&th.stats.ConflictReader)
				}
			case metastate.StateOverflow:
				bump(&th.stats.ConflictAnon)
			}
			spinWait(spin, &th.rng)
			continue
		}
		if !w.CompareAndSwap(uint64(old), uint64(old.With(np))) {
			continue
		}
		// All T tokens held: the guard read is committed state, and no other
		// thread can transition the word, so plain stores release it.
		switch g := tm.dataw(a1).Load(); g {
		case 0:
			// Claimed by the full-token CAS above; the guard word was zero,
			// so there is no old value to log.
			tm.dataw(a1).Store(k1)
		case k1:
		default:
			w.Store(uint64(old)) // nothing written: the stamp must not move
			return false, 0
		}
		// Claimed by the full-token CAS above; a2 is the value word of a
		// claimed-or-fresh record, never replayed on abort.
		tm.dataw(a2).Store(v2)
		serial = tm.nextSerial()
		w.Store(uint64(metastate.MakeWord(metastate.PackedZero, serial)))
		bump(&th.stats.Commits)
		return true, serial
	}
}

// The spin bounds (how many CAS/conflict rounds one acquisition tries before
// the attempt gives up; the much tighter bound for a blocked read-to-write
// upgrade) are spinLimit and upgradeSpinLimit — see options.go for the
// policy rationale.

// acquireRead takes one token on block b: (0,-) -> (1,self); a second reader
// fuses the identified reader into the anonymous count (1,X) -> (2,-);
// further readers increment it. A foreign writer, or an anonymous count at
// the 14-bit packing limit, is a conflict. A block showing (T, self) is this
// attempt's own write: nothing is taken, and took reports false.
func (tx *Tx) acquireRead(b uint32) (took bool) {
	th := tx.th
	w := th.tm.metaw(b)
	for spin := 0; ; spin++ {
		if th.doomed() {
			tx.retry(&th.stats.DoomedAborts)
		}
		old := metastate.PackedWord(w.Load())
		p := old.Packed()
		np, ok := p.AddReader(th.tid)
		if !ok {
			switch p.State() {
			case metastate.StateWriteT:
				if mem.TID(p.Attr()) == th.tid {
					return false
				}
				tx.conflict(mem.TID(p.Attr()), &th.stats.ConflictWriter, spin)
			case metastate.StateAnon, metastate.StateRead1, metastate.StateOverflow:
				// A count at the 14-bit limit, or the overflow escape the
				// host never packs (readers are bounded by maxThreads «
				// 2^14): an anonymous conflict. (1,Y) never refuses.
				tx.conflict(mem.NoTID, &th.stats.ConflictAnon, spin)
			}
			continue
		}
		if p.State() == metastate.StateRead1 && mem.TID(p.Attr()) == th.tid {
			panic(fmt.Sprintf("stm: thread %d re-acquiring its own read token on block %d", th.tid, b))
		}
		if w.CompareAndSwap(uint64(old), uint64(old.With(np))) {
			return true
		}
	}
}

// acquireWrite takes all T tokens on block b. haveRead says this transaction
// already holds one read token on b; the claim then folds that token in
// ((1,self) -> (T,self), or (1,-) -> (T,self) when the lone anonymous token
// is provably ours) rather than double-counting it. Any other outstanding
// reader or writer is a conflict. An invisible attempt also needs the block
// no newer than its read serial — it may go on to read the data under the
// claim (LoadW), or have read it already — so a stamp past rv goes through
// extend first. The claim keeps the stamp it found, which is what lets
// readsValid treat write-held blocks like any other. A block already showing
// (T, self) is this attempt's own write: claimed reports false.
func (tx *Tx) acquireWrite(b uint32, haveRead bool) (claimed bool) {
	th := tx.th
	w := th.tm.metaw(b)
	var mine uint32 // our read token, folded into the claim
	if haveRead {
		mine = 1
	}
	for spin := 0; ; spin++ {
		if th.doomed() {
			tx.retry(&th.stats.DoomedAborts)
		}
		old := metastate.PackedWord(w.Load())
		p := old.Packed()
		np, ok := p.ClaimWrite(th.tid, mine)
		if !ok {
			switch p.State() {
			case metastate.StateAnon:
				// Upgrade herd guard: an upgrader blocked by other readers
				// is itself holding a fused read token those readers (often
				// fellow upgraders) are waiting on. Spinning here with the
				// token held starves everyone, so give up almost at once —
				// the abort returns our token and the attempt-level backoff
				// serializes the herd.
				if haveRead && spin >= upgradeSpinLimit {
					tx.retry(&th.stats.ConflictAborts)
				}
				tx.conflict(mem.NoTID, &th.stats.ConflictReader, spin)
			case metastate.StateRead1:
				if mem.TID(p.Attr()) == th.tid {
					panic(fmt.Sprintf("stm: thread %d identified on block %d without a logged read", th.tid, b))
				}
				tx.conflict(mem.TID(p.Attr()), &th.stats.ConflictReader, spin)
			case metastate.StateWriteT:
				tx.conflict(mem.TID(p.Attr()), &th.stats.ConflictWriter, spin)
			case metastate.StateOverflow:
				tx.conflict(mem.NoTID, &th.stats.ConflictAnon, spin)
			}
			continue
		}
		if np == p {
			return false // (T, self): already the writer
		}
		if !tx.visible && old.Stamp() > tx.rv {
			tx.extend() // on return rv covers old: its stamp was drawn before we loaded it
		}
		if w.CompareAndSwap(uint64(old), uint64(old.With(np))) {
			return true
		}
	}
}

// conflict applies the requester-side resolution policy for one failed
// acquisition round: count it, draw our birth ticket if this is the
// transaction's first conflict, doom a younger identified holder, give up
// after spinLimit rounds, otherwise yield briefly and re-examine.
func (tx *Tx) conflict(enemy mem.TID, counter *atomic.Uint64, spin int) {
	th := tx.th
	bump(counter)
	if spin >= spinLimit {
		tx.retry(&th.stats.ConflictAborts)
	}
	th.ensureBirth()
	if enemy != mem.NoTID {
		th.maybeDoom(enemy)
	}
	spinWait(spin, &th.rng)
}

// retry aborts the attempt (undo + release) and unwinds to the retry
// driver (Thread.run or Group.Atomically), which backs off before the next
// attempt.
func (tx *Tx) retry(counter *atomic.Uint64) {
	bump(counter)
	tx.abortAttempt()
	panic(retrySignal{})
}

// commitAttempt is the fast path out of a successful attempt: flip the
// status word (failing if an elder doomed us at the last moment), draw the
// commit serial while every token is still held — the serialization point —
// then release all tokens, stamping the serial into every written block so
// tokenless readers can place the writes relative to their read serial. An
// invisible attempt holds no read tokens, so it re-validates its read log in
// between. The serial is drawn first, as in TL2: a writer that claims a
// validated block afterwards then necessarily draws a larger one, which is
// the order kvstore.ReplayJournals replays by.
//
// A read-only attempt draws and releases nothing: rv is its serialization
// point (ReplayJournals sorts writers before readers at equal serial).
func (tx *Tx) commitAttempt() uint64 {
	th := tx.th
	if !th.status.CompareAndSwap(
		th.attempt<<statusShift|stateActive,
		th.attempt<<statusShift|stateIdle) {
		tx.retry(&th.stats.DoomedAborts)
	}
	if tx.ro {
		tx.finished = true
		bump(&th.stats.Commits)
		bump(&th.stats.SnapshotCommits)
		return tx.rv
	}
	serial := th.tm.nextSerial()
	if !tx.visible && !tx.readsValid() {
		tx.retry(&th.stats.ConflictAborts)
	}
	tx.releaseAll(serial)
	tx.finished = true
	bump(&th.stats.Commits)
	return serial
}

// abortAttempt rolls the attempt back: replay the undo log in reverse while
// the write tokens are still held, then release every token. Written blocks
// still get a fresh stamp — the restored bytes equal the pre-transaction
// state, but a tokenless reader may have seen the block mid-write, and only
// a stamp change tells it to re-read.
func (tx *Tx) abortAttempt() {
	th := tx.th
	for i := len(tx.logs.undo) - 1; i >= 0; i-- {
		e := tx.logs.undo[i]
		th.tm.dataw(e.addr).Store(e.old)
	}
	var stamp uint64
	if len(tx.logs.write) > 0 {
		stamp = th.tm.nextSerial()
	}
	tx.releaseAll(stamp)
	tx.finished = true
	bump(&th.stats.Aborts)
}

// releaseAll returns every token this attempt holds. Read blocks go first,
// visible attempts only (an invisible attempt's read log holds no tokens):
// each decrements the anonymous count or clears the identified-reader state,
// except a block the attempt went on to upgrade, which still shows (T, self)
// and releases through its write entry only — the read token was folded into
// the write claim, so decrementing it again would be the double-entry
// violation the model checker hunts. Write blocks then release all T tokens
// in one transition ((T,self) -> (0,-)). Every attempt walks its logs the
// same way; one whose logs each stayed within inlineLog entries counts as a
// fast release, the host analog of the paper's small-transaction
// flash-clear release, and a larger one as a slow release.
func (tx *Tx) releaseAll(stamp uint64) {
	th := tx.th
	if tx.visible {
		for _, b := range tx.logs.read {
			th.releaseRead(b)
		}
	}
	for _, b := range tx.logs.write {
		th.releaseWrite(b, stamp)
	}
	if tx.logs.inline() {
		bump(&th.stats.FastReleases)
	} else {
		bump(&th.stats.SlowReleases)
	}
}

// releaseWrite returns all T tokens of block b: (T,self) -> (0,-), stamping
// the releasing transaction's serial into the word (the tokenless readers'
// visibility fence). No other thread can transition a writer-held word, so
// the CAS succeeds first try; the loop guards the invariant.
func (th *Thread) releaseWrite(b uint32, stamp uint64) {
	w := th.tm.metaw(b)
	for {
		old := metastate.PackedWord(w.Load())
		p := old.Packed()
		if p.State() != metastate.StateWriteT || mem.TID(p.Attr()) != th.tid {
			panic(fmt.Sprintf("stm: thread %d releasing write token it does not hold on block %d (%#04x)", th.tid, b, uint16(p)))
		}
		if w.CompareAndSwap(uint64(old), uint64(metastate.MakeWord(metastate.PackedZero, stamp))) {
			return
		}
	}
}

// releaseRead returns one token of block b. While we hold a read token the
// word is either (1,self) — we stayed the identified reader — or an
// anonymous count (u,-) that includes our token (fusion erases identity and
// releases never re-identify, Table 2), or (T,self) once we upgraded, whose
// write release returns the folded token.
func (th *Thread) releaseRead(b uint32) {
	w := th.tm.metaw(b)
	for {
		old := metastate.PackedWord(w.Load())
		p := old.Packed()
		np, ok := p.DropReader(th.tid)
		if !ok {
			if p.State() == metastate.StateWriteT && mem.TID(p.Attr()) == th.tid {
				return // upgraded: released with the write set
			}
			panic(fmt.Sprintf("stm: thread %d releasing read token it does not hold on block %d (%#04x)", th.tid, b, uint16(p)))
		}
		if w.CompareAndSwap(uint64(old), uint64(old.With(np))) {
			return
		}
	}
}

// spinWait delays one acquisition round: exponential in the round number,
// capped at spinShiftCap, with jitter, implemented as scheduler yields so
// the holder runs even at GOMAXPROCS=1.
func spinWait(spin int, rng *uint64) {
	if spin > spinShiftCap {
		spin = spinShiftCap
	}
	n := uint64(1)<<spin + nextRand(rng)&3
	for i := uint64(0); i < n; i++ {
		runtime.Gosched()
	}
}
