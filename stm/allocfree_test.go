package stm

// TestAllocFreeAnnotations is this package's allocation guard: each row
// drives one hot path, or one arm of it, and must measure zero allocations
// per run once warm. The rows together enter every function those paths
// call, the conflict, doom, extend and wait arms included, so an allocation
// anywhere on them fails a named row. The drivers are white-box —
// beginAttempt and commitAttempt bracket the protocol calls the way
// runAttempt does, and runAttempt itself catches the retrySignal of a row
// that aborts. A function with a second path gets a second row named
// "Func/path"; the unsuffixed rows read visibly.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"tokentm/internal/metastate"
)

func TestAllocFreeAnnotations(t *testing.T) {
	tm := New(64, 4, 2)
	th := tm.Thread(0)
	tx := &th.tx
	bigTM := New(512, 1, 1)

	words := Addr(tm.WordsPerBlock())
	a := 3 * words  // block 3
	u := 11 * words // block 11, reserved for the Upsert2 entry
	e := 12 * words // block 12, an empty slot the Upsert2 rows never keep

	// One-time growth: the first transactions warm every stats field. Each
	// entry also runs three warm-up rounds before measuring, which grow the
	// read set and the logs to their steady size.
	for i := 0; i < 3; i++ {
		if _, err := th.Atomically(func(tx *Tx) error {
			tx.Store(a, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	load := func(visible bool) func() {
		return func() {
			th.beginAttempt(tx, visible)
			if tx.Load(a) == 0 {
				t.Fatal("warm-up should have left block 3 nonzero")
			}
			tx.commitAttempt()
		}
	}
	load2 := func(visible bool) func() {
		return func() {
			th.beginAttempt(tx, visible)
			tx.Load2(a, a+1)
			tx.commitAttempt()
		}
	}
	// ownWrite reads a block the attempt has already written: a visible
	// read finds (T, self) in acquireRead, a tokenless one in read2.
	ownWrite := func(visible bool) func() {
		return func() {
			th.beginAttempt(tx, visible)
			tx.Store(a, 5)
			if tx.Load(a) != 5 {
				t.Fatal("own write not read back")
			}
			tx.commitAttempt()
		}
	}

	// The guarded pair: n records from block 16 on, key b in word 0 of block
	// b — a match binds the read, any other guard passes over the record.
	// n = 32 takes the read log past the fast-release size, and with it the
	// write and undo logs (the "spilled" rows).
	for b := Addr(16); b < 48; b++ {
		tm.StoreWord(b*words, uint64(b))
	}
	lookup2 := func(visible bool, n Addr) func() {
		return func() {
			th.beginAttempt(tx, visible)
			for b := Addr(16); b < 16+n; b++ {
				tx.Lookup2(b*words, b*words+1, uint64(b))
				tx.Lookup2(b*words, b*words+1, 1)
			}
			if len(tx.logs.read) != int(n) {
				t.Fatalf("read log holds %d entries, want %d", len(tx.logs.read), n)
			}
			tx.commitAttempt()
		}
	}
	upsert2 := func(visible bool, n Addr) func() {
		return func() {
			th.beginAttempt(tx, visible)
			for b := Addr(16); b < 16+n; b++ {
				if tx.Upsert2(b*words, b*words+1, 1, 7) || !tx.Upsert2(b*words, b*words+1, uint64(b), 7) {
					t.Fatalf("Upsert2 on block %d claimed the wrong key", b)
				}
			}
			if len(tx.logs.write) != int(n) {
				t.Fatalf("write log holds %d entries, want %d", len(tx.logs.write), n)
			}
			tx.commitAttempt()
		}
	}

	// read32 reads 32 blocks, enough to take the read log past the
	// fast-release size. It has fn's signature so the ReadOnly row can pass
	// it as is.
	read32 := func(tx *Tx) error {
		for b := Addr(16); b < 48; b++ {
			tx.Load(b * words)
		}
		if len(tx.logs.read) != 32 || tx.logs.inline() {
			t.Fatalf("read log holds %d entries inline=%v, want 32 past the fast-release size", len(tx.logs.read), tx.logs.inline())
		}
		return nil
	}

	// The conflict rig: a TM whose transactions give up after two attempts,
	// a holder whose attempt stays open across a row, a requester that runs
	// into it, a second reader, and a writer that commits in between.
	ctm := NewWithOptions(64, 4, 4, Options{MaxAttempts: 2})
	hold, req, peer, wr := ctm.Thread(0), ctm.Thread(1), ctm.Thread(2), ctm.Thread(3)
	cw := Addr(ctm.WordsPerBlock())
	x, y, z, lim := 1*cw, 2*cw, 3*cw, 4*cw
	ctm.StoreWord(x, 42) // the Thread.Upsert2 rows' guard

	// holdWrite and holdRead open th's attempt on a and leave it open.
	holdWrite := func(th *Thread, a Addr) {
		th.beginAttempt(&th.tx, true)
		th.tx.Store(a+1, th.tx.LoadW(a+1)+1)
	}
	holdRead := func(th *Thread, a Addr) {
		th.beginAttempt(&th.tx, true)
		th.tx.Load(a)
	}
	// commitWrite commits one write to a, moving its stamp past every read
	// serial sampled before.
	commitWrite := func(a Addr) {
		wr.beginAttempt(&wr.tx, true)
		wr.tx.Store(a+1, wr.tx.LoadW(a+1)+1)
		wr.tx.commitAttempt()
	}
	// idle closes th's attempt after runAttempt caught its retrySignal, as
	// run does before its next attempt.
	idle := func(th *Thread) { th.status.Store(th.attempt<<statusShift | stateIdle) }
	// mustAbort runs fn as one attempt of th and wants it to abort.
	mustAbort := func(th *Thread, visible bool, fn func(*Tx) error) {
		th.beginAttempt(&th.tx, visible)
		if _, _, again := th.runAttempt(&th.tx, fn); !again {
			t.Fatal("attempt committed, want a retry")
		}
		idle(th)
	}
	// mustCommit runs fn as one attempt of th and wants it to commit.
	mustCommit := func(th *Thread, visible bool, fn func(*Tx) error) {
		th.beginAttempt(&th.tx, visible)
		if _, err, again := th.runAttempt(&th.tx, fn); again || err != nil {
			t.Fatal("attempt aborted, want a commit")
		}
	}
	// mustGiveUp runs fn under Atomically against a holder that never lets
	// go: every attempt spins out, and the second ends it with ErrAborted.
	mustGiveUp := func(fn func(*Tx) error) {
		if _, err := req.Atomically(fn); err != ErrAborted {
			t.Fatal("Atomically against a held block did not end in ErrAborted")
		}
	}
	loadX := func(tx *Tx) error { tx.Load(x); return nil }
	storeX := func(tx *Tx) error { tx.Store(x, 1); return nil }
	upgradeX := func(tx *Tx) error { tx.Store(x, tx.Load(x)+1); return nil }
	loadLim := func(tx *Tx) error { tx.Load(lim); return nil }

	// doom has req conflict with hold, which has drawn no ticket and so
	// counts as youngest: hold is doomed, and a second round finds it no
	// longer active. A peer holding an older ticket than req's is left
	// alone.
	doom := func() {
		req.birth.Store(0)
		req.beginAttempt(&req.tx, true)
		req.tx.conflict(hold.tid, &req.stats.ConflictWriter, 0)
		req.tx.conflict(hold.tid, &req.stats.ConflictWriter, 1)
		peer.beginAttempt(&peer.tx, true)
		peer.birth.Store(1)
		req.tx.conflict(peer.tid, &req.stats.ConflictReader, 0)
		peer.tx.commitAttempt()
		peer.birth.Store(0)
		req.tx.commitAttempt()
	}
	doomedRead := func(tx *Tx) error { tx.Store(x, 1); doom(); tx.Load(y); return nil }
	doomedWrite := func(tx *Tx) error { tx.Store(x, 1); doom(); tx.Store(y, 1); return nil }
	doomedCommit := func(tx *Tx) error { tx.Store(x, 1); doom(); return nil }

	// extendOK reads and writes blocks committed past rv; extendFail reads x,
	// sees it rewritten, and fails the extend that the next read asks for.
	extendOK := func(tx *Tx) error {
		commitWrite(y)
		tx.Load(y)
		commitWrite(z)
		tx.Store(z, 1)
		return nil
	}
	extendFail := func(tx *Tx) error {
		tx.Load(x)
		commitWrite(x)
		commitWrite(y)
		tx.Load(y)
		return nil
	}
	// staleRead and heldRead leave a read log that fails validation at
	// commit: x rewritten, or x claimed by a writer still holding it.
	staleRead := func(tx *Tx) error { tx.Load(x); commitWrite(x); tx.Store(z, 1); return nil }
	heldRead := func(tx *Tx) error { tx.Load(x); holdWrite(hold, x); return nil }

	// The wait rows need a holder that lets go while the waiter spins. A
	// parked helper goroutine does it: woken by rel, it waits until the
	// waiter has counted a conflict, commits every holder, and reports on
	// relDone. It allocates nothing, since AllocsPerRun counts the
	// allocations of every goroutine.
	rel, relDone := make(chan struct{}), make(chan struct{})
	var (
		relCounter *atomic.Uint64
		relFrom    uint64
		relHolders []*Thread
	)
	go func() {
		for range rel {
			// Bounded, so that a waiter that stops counting fails its row
			// instead of hanging the test.
			for i := 0; relCounter.Load() == relFrom && i < 1<<16; i++ {
				runtime.Gosched()
			}
			for _, h := range relHolders {
				h.tx.commitAttempt()
			}
			relDone <- struct{}{}
		}
	}()
	defer close(rel)
	waitOut := func(counter *atomic.Uint64, holders []*Thread, wait func()) {
		from := counter.Load()
		relCounter, relFrom, relHolders = counter, from, holders
		rel <- struct{}{}
		wait()
		<-relDone
		if counter.Load() == from {
			t.Fatal("the waiter did not wait for the holder")
		}
	}
	justHold, holdAndPeer := []*Thread{hold}, []*Thread{hold, peer}
	snapshotX := func() {
		if v, _, _ := req.Snapshot2(x, x+1); v != 42 {
			t.Fatal("Snapshot2 read the wrong guard")
		}
	}
	upsertX := func() {
		if claimed, _ := req.Upsert2(x, x+1, 42, 7); !claimed {
			t.Fatal("Upsert2 lost its own key")
		}
	}
	// The anonymous count at its 14-bit limit: one more reader is refused.
	fullAnon, _ := metastate.Pack(metastate.Anon(1<<14 - 1))

	entries := []struct {
		name string
		fn   func()
	}{
		{"Tx.Load", load(true)},
		{"Tx.Load/invisible", load(false)},
		{"Tx.Load/own-write", ownWrite(true)},
		{"Tx.Load/own-write-invisible", ownWrite(false)},
		{"Tx.Load2", load2(true)},
		{"Tx.Load2/invisible", load2(false)},
		{"Tx.LoadW", func() {
			th.beginAttempt(tx, true)
			tx.Store(a, tx.LoadW(a)+1)
			tx.commitAttempt()
		}},
		{"Tx.Store", func() {
			th.beginAttempt(tx, true)
			tx.Store(a, 7)
			tx.commitAttempt()
		}},
		{"Tx.Lookup2", lookup2(true, 1)},
		{"Tx.Lookup2/invisible", lookup2(false, 1)},
		{"Tx.Lookup2/spilled-log", lookup2(false, 32)},
		{"Tx.Upsert2", upsert2(true, 1)},
		{"Tx.Upsert2/invisible", upsert2(false, 1)},
		{"Tx.Upsert2/spilled-log", upsert2(false, 32)},
		{"Tx.Upsert2/empty-slot", func() {
			// A zero guard is claimed and logged; the abort empties it again.
			th.beginAttempt(tx, true)
			if !tx.Upsert2(e, e+1, 9, 9) {
				t.Fatal("Upsert2 refused an empty slot")
			}
			tx.abortAttempt()
		}},
		{"Tx.commitAttempt", func() {
			th.beginAttempt(tx, true)
			tx.Store(a, tx.Load(a)+1)
			tx.commitAttempt()
		}},
		{"Tx.commitAttempt/spilled-read-log", func() {
			// 32 invisible reads and one upgrade: the commit validates a
			// read log past the fast-release size.
			th.beginAttempt(tx, false)
			read32(tx)
			tx.Store(16*words, 1)
			tx.commitAttempt()
		}},
		{"Tx.commitAttempt/read-only", func() {
			// The same 32 reads through the ReadOnly driver: a slow release,
			// and the commit returns rv. The rows around this one open attempts
			// by hand, and only a driver sets Tx.ro.
			if _, err := th.ReadOnly(read32); err != nil {
				t.Fatal(err)
			}
			tx.ro = false
		}},
		{"Tx.commitAttempt/stale-read", func() { mustAbort(req, false, staleRead) }},
		{"Tx.commitAttempt/held-read", func() {
			mustAbort(req, false, heldRead)
			hold.tx.abortAttempt()
		}},
		{"Tx.commitAttempt/doomed", func() { mustAbort(hold, true, doomedCommit) }},
		{"Tx.abortAttempt", func() {
			th.beginAttempt(tx, true)
			tx.Store(a, 99)
			tx.abortAttempt()
		}},
		{"Tx.abortAttempt/spilled-undo-log", func() {
			// 32 stores: the undo log passes the fast-release size, and the
			// replay reads it back.
			th.beginAttempt(tx, true)
			for b := Addr(16); b < 48; b++ {
				tx.Store(b*words+1, 3)
			}
			tx.abortAttempt()
		}},
		{"Tx.conflict/writer", func() {
			// Both attempts spin out against hold's write: the tokenless
			// read on the first, the read token on the second.
			holdWrite(hold, x)
			mustGiveUp(loadX)
			hold.tx.abortAttempt()
		}},
		{"Tx.conflict/write-writer", func() {
			holdWrite(hold, x)
			mustGiveUp(storeX)
			hold.tx.abortAttempt()
		}},
		{"Tx.conflict/write-reader", func() {
			// The first attempt is refused by peer's identified read token;
			// the second fuses its own read token with peer's and gives up
			// the upgrade almost at once (the herd guard).
			holdRead(peer, x)
			mustGiveUp(upgradeX)
			peer.tx.abortAttempt()
		}},
		{"Tx.conflict/write-readers", func() {
			holdRead(hold, x)
			holdRead(peer, x)
			mustGiveUp(storeX)
			hold.tx.abortAttempt()
			peer.tx.abortAttempt()
		}},
		{"Tx.conflict/read-full-count", func() {
			// A visible read refused by an anonymous count at its limit.
			ctm.metaw(uint32(lim / cw)).Store(uint64(metastate.MakeWord(fullAnon, 0)))
			mustAbort(req, true, loadLim)
			ctm.metaw(uint32(lim / cw)).Store(0)
		}},
		{"Tx.retry/doomed-read", func() { mustAbort(hold, true, doomedRead) }},
		{"Tx.retry/doomed-read-invisible", func() { mustAbort(hold, false, doomedRead) }},
		{"Tx.retry/doomed-write", func() { mustAbort(hold, true, doomedWrite) }},
		{"Tx.extend", func() { mustCommit(req, false, extendOK) }},
		{"Tx.extend/fail", func() { mustAbort(req, false, extendFail) }},
		{"Thread.Snapshot2", func() {
			th.Snapshot2(a, a+1)
		}},
		{"Thread.Snapshot2/wait-writer", func() {
			holdWrite(hold, x)
			waitOut(&req.stats.ConflictWriter, justHold, snapshotX)
		}},
		{"Thread.NoteCommit", func() {
			th.NoteCommit()
		}},
		{"Thread.Upsert2", func() {
			claimed, _ := th.Upsert2(u, u+1, 42, 43)
			if !claimed {
				t.Fatal("Upsert2 lost a claim with no contenders")
			}
		}},
		{"Thread.Upsert2/foreign-key", func() {
			if claimed, _ := th.Upsert2(u, u+1, 41, 43); claimed {
				t.Fatal("Upsert2 claimed a record holding another key")
			}
		}},
		{"Thread.Upsert2/wait-writer", func() {
			holdWrite(hold, x)
			waitOut(&req.stats.ConflictWriter, justHold, upsertX)
		}},
		{"Thread.Upsert2/wait-reader", func() {
			holdRead(hold, x)
			waitOut(&req.stats.ConflictReader, justHold, upsertX)
		}},
		{"Thread.Upsert2/wait-readers", func() {
			holdRead(hold, x)
			holdRead(peer, x)
			waitOut(&req.stats.ConflictReader, holdAndPeer, upsertX)
		}},
		{"readSet.add", func() {
			// A visible attempt reading 300 blocks: past readSetInit, so the
			// warm-up rounds grew the set, and the steady state reuses it.
			big := bigTM.Thread(0)
			btx := &big.tx
			big.beginAttempt(btx, true)
			for b := Addr(0); b < 300; b++ {
				btx.Load(b)
			}
			btx.commitAttempt()
		}},
		{"bump", func() {
			bump(&th.stats.Commits)
		}},
		{"spinWait", func() {
			rng := th.rng
			spinWait(1, &rng)
			spinWait(spinShiftCap+1, &rng)
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
	quiesced(t, tm)
	quiesced(t, ctm)
}
