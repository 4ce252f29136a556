package stm

// Contract for the two read protocols. The first attempt of a
// Thread.Atomically and every attempt of a Thread.ReadOnly read invisibly —
// stamp-validated against a read serial, logged, re-validated at commit, no
// token; every retry of an Atomically and every Group member reads visibly,
// by token. The scenario tests are white-box and single-goroutine: a second
// Thread commits from inside fn, at the exact point of the attempt the
// scenario needs. The opacity test is the property both protocols owe every
// attempt, including the ones that abort.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// TestThreadLayout pins the false-sharing fixes that are otherwise invisible
// to every functional test: Thread slots tile cache lines exactly, the Tx
// embedded in each did not grow, and the TM's two clocks keep a full line
// between themselves and the read-only header on one side and whatever the
// allocator places after the TM on the other.
func TestThreadLayout(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(Thread{}); sz%line != 0 {
		t.Errorf("Sizeof(Thread{}) = %d, not a multiple of %d: adjacent TM.threads slots share a cache line", sz, line)
	}
	if sz := unsafe.Sizeof(Tx{}); sz != 96 {
		t.Errorf("Sizeof(Tx{}) = %d, want 96", sz)
	}
	var tm TM
	header := unsafe.Offsetof(tm.threads) + unsafe.Sizeof(tm.threads)
	if gap := unsafe.Offsetof(tm.births) - header; gap < line {
		t.Errorf("TM.births starts %d bytes after the header, want >= %d", gap, line)
	}
	clocks := unsafe.Offsetof(tm.serial) + unsafe.Sizeof(tm.serial)
	if gap := unsafe.Sizeof(tm) - clocks; gap < line {
		t.Errorf("TM ends %d bytes after TM.serial, want >= %d", gap, line)
	}
}

// commitFrom commits one transaction on th that stores v at a — the
// "another thread wrote this block just now" step of the scenarios below.
func commitFrom(t *testing.T, th *Thread, a Addr, v uint64) uint64 {
	t.Helper()
	s, err := th.Atomically(func(tx *Tx) error {
		tx.Store(a, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInvisibleReadExtends: a block stamped after the attempt began is not a
// conflict by itself. With the read set untouched, the attempt moves its
// read serial forward and commits first time.
func TestInvisibleReadExtends(t *testing.T) {
	tm := New(8, 2, 2)
	th, other := tm.Thread(0), tm.Thread(1)
	tm.StoreWord(0, 5)
	attempts := 0
	var got uint64
	serial, err := th.Atomically(func(tx *Tx) error {
		attempts++
		got = tx.Load(0)
		commitFrom(t, other, 2, 7) // block 1 is now newer than our rv
		got += tx.Load(2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 || got != 12 {
		t.Fatalf("attempts = %d, sum = %d; want 1 attempt reading 5+7", attempts, got)
	}
	if s := tm.Stats(); s.Aborts != 0 || s.Commits != 2 {
		t.Fatalf("stats = %+v, want 2 commits and no abort", s)
	}
	if stamp := metastate.PackedWord(tm.metaw(1).Load()).Stamp(); serial <= stamp {
		t.Fatalf("reader serial %d not after the stamp %d it read", serial, stamp)
	}
	quiesced(t, tm)
}

// TestInvisibleReadInvalidatedAtCommit: a read-set block rewritten between
// the read and the commit fails the commit-time validation. That costs the
// transaction one abort; the retry reads by token, which the rewrite cannot
// get past.
func TestInvisibleReadInvalidatedAtCommit(t *testing.T) {
	tm := New(8, 2, 2)
	th, other := tm.Thread(0), tm.Thread(1)
	attempts := 0
	var got uint64
	if _, err := th.Atomically(func(tx *Tx) error {
		attempts++
		_, got = tx.Load2(0, 1)
		switch attempts {
		case 1:
			if claimed, _ := other.Upsert2(0, 1, 9, 41); !claimed {
				t.Fatal("Upsert2 lost a claim against an invisible reader")
			}
		case 2:
			if p := metastate.PackedWord(tm.metaw(0).Load()).Packed(); p.State() != metastate.StateRead1 || mem.TID(p.Attr()) != th.tid {
				t.Fatalf("retry holds metastate %#04x on block 0, want its own read token", uint16(p))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || got != 41 {
		t.Fatalf("attempts = %d, value = %d; want 2 attempts, the second reading 41", attempts, got)
	}
	if s := tm.Stats(); s.Aborts != 1 || s.ConflictAborts != 1 {
		t.Fatalf("stats = %+v, want exactly one (conflict) abort", s)
	}
	quiesced(t, tm)
}

// TestInvisibleReadRestampedBeforeClaim: upgrading a block that was
// rewritten since the attempt read it aborts at the claim, not at the
// commit — the attempt never runs on with a value it could not have read.
func TestInvisibleReadRestampedBeforeClaim(t *testing.T) {
	tm := New(8, 2, 2)
	th, other := tm.Thread(0), tm.Thread(1)
	tm.StoreWord(0, 10)
	attempts, pastClaim := 0, 0
	if _, err := th.Atomically(func(tx *Tx) error {
		attempts++
		v := tx.Load(0)
		if attempts == 1 {
			commitFrom(t, other, 0, 20)
		}
		tx.Store(0, v+1)
		pastClaim++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || pastClaim != 1 {
		t.Fatalf("attempts = %d, past the claim %d times; want 2 and 1", attempts, pastClaim)
	}
	if v := tm.LoadWord(0); v != 21 {
		t.Fatalf("word 0 = %d, want 21 (increment applied to the rewritten value)", v)
	}
	if s := tm.Stats(); s.Aborts != 1 || s.Upgrades != 1 {
		t.Fatalf("stats = %+v, want one abort and one (committed) upgrade", s)
	}
	quiesced(t, tm)
}

// TestMixedModeReadersShareABlock: an invisible reader commits beside a
// visible reader's token without disturbing it, and a writer still waits
// for the visible one.
func TestMixedModeReadersShareABlock(t *testing.T) {
	tm := NewWithOptions(8, 2, 3, Options{MaxAttempts: 2})
	tm.StoreWord(0, 3)
	release := parkReader(tm.Thread(0), 0)

	if _, err := tm.Thread(1).Atomically(func(tx *Tx) error {
		if v := tx.Load(0); v != 3 {
			t.Errorf("invisible reader saw %d, want 3", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := tm.Stats(); s.Aborts != 0 || s.Commits != 1 {
		t.Fatalf("stats = %+v, want the invisible reader committed first time", s)
	}
	if p := metastate.PackedWord(tm.metaw(0).Load()).Packed(); p.State() != metastate.StateRead1 {
		t.Fatalf("block 0 metastate %#04x, want the parked reader's token untouched", uint16(p))
	}

	wr := tm.Thread(2)
	if _, err := wr.Atomically(func(tx *Tx) error {
		tx.Store(0, 4)
		return nil
	}); !errors.Is(err, ErrAborted) {
		t.Fatalf("writer against a parked visible reader = %v, want ErrAborted", err)
	}
	if s := tm.Stats(); s.ConflictReader == 0 {
		t.Fatalf("stats = %+v, want the writer's rounds counted as reader conflicts", s)
	}
	release()
	commitFrom(t, wr, 0, 4)
	if s := tm.Stats(); s.Commits != 3 {
		t.Fatalf("commits = %d, want 3 (both readers and the writer)", s.Commits)
	}
	quiesced(t, tm)
}

// TestReadOnlyExtendsPastUnrelatedCommit: a read-only transaction is an
// invisible attempt like any other, so a commit to a block it has not read
// moves its read serial forward instead of restarting it. The serial it
// returns is that extended read serial — at or after the writer's, whose
// value it saw.
func TestReadOnlyExtendsPastUnrelatedCommit(t *testing.T) {
	tm := New(8, 2, 2)
	th, other := tm.Thread(0), tm.Thread(1)
	tm.StoreWord(0, 5)
	attempts := 0
	var got, wrote uint64
	serial, err := th.ReadOnly(func(tx *Tx) error {
		attempts++
		got = tx.Load(0)
		if attempts == 1 {
			var claimed bool
			if claimed, wrote = other.Upsert2(2, 3, 9, 7); !claimed { // block 1, never read
				t.Fatal("Upsert2 lost a claim with no contenders")
			}
		}
		_, v := tx.Load2(2, 3)
		got += v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 || got != 12 {
		t.Fatalf("attempts = %d, sum = %d; want 1 attempt reading 5+7", attempts, got)
	}
	if s := tm.Stats(); s.SnapshotRetries != 0 || s.Aborts != 0 || s.SnapshotCommits != 1 {
		t.Fatalf("stats = %+v, want one read-only commit, no retry and no abort", s)
	}
	if serial < wrote {
		t.Fatalf("reader serial %d before the writer's %d whose value it read", serial, wrote)
	}
	if c := tm.SerialClock(); c != wrote {
		t.Fatalf("serial clock = %d, want %d: a read-only commit draws no serial", c, wrote)
	}
	quiesced(t, tm)
}

// TestReadOnlyThenGroupStores: nothing clears Tx.ro when a ReadOnly returns,
// so the next driver on the thread must set it. A Group member that last ran
// a ReadOnly is neither busy nor barred from storing.
func TestReadOnlyThenGroupStores(t *testing.T) {
	tmA, tmB, g := twoShardGroup(t, Options{})
	if _, err := tmA.Thread(0).ReadOnly(func(tx *Tx) error {
		tx.Load(0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Atomically(func(gt *GroupTx) error {
		gt.Tx(0).Store(0, gt.Tx(0).LoadW(0)+11)
		gt.Tx(1).Store(0, 22)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := tmA.LoadWord(0), tmB.LoadWord(0); a != 11 || b != 22 {
		t.Fatalf("words = (%d,%d), want (11,22)", a, b)
	}
	quiesced(t, tmA)
	quiesced(t, tmB)
}

// TestReadOnlyRetryStaysInvisible: a read-set block rewritten before a later
// load meets a newer stamp fails the extension, which costs the transaction
// one abort. Unlike an Atomically, the retry reads invisibly again: it takes
// no token, so a writer claims a block it has read without waiting, and the
// transaction still commits, serialized before that writer.
func TestReadOnlyRetryStaysInvisible(t *testing.T) {
	tm := New(8, 2, 3)
	th, other, wr := tm.Thread(0), tm.Thread(1), tm.Thread(2)
	attempts := 0
	var got uint64
	var release func()
	if _, err := th.ReadOnly(func(tx *Tx) error {
		attempts++
		_, got = tx.Load2(0, 1)
		if attempts == 1 {
			for _, a := range []Addr{0, 2} { // the block just read, and the next one
				if claimed, _ := other.Upsert2(a, a+1, 9, 41); !claimed {
					t.Fatal("Upsert2 lost a claim against an invisible reader")
				}
			}
		}
		tx.Load(2) // attempt 1: stamp past rv, and block 0 no longer stands
		if attempts == 2 {
			if tx.visible {
				t.Error("read-only retry reads visibly")
			}
			if p := metastate.PackedWord(tm.metaw(0).Load()).Packed(); p != metastate.PackedZero {
				t.Fatalf("retry left metastate %#04x on block 0, want no token", uint16(p))
			}
			release = parkWriter(wr, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || got != 41 {
		t.Fatalf("attempts = %d, value = %d; want 2 attempts, the second reading 41", attempts, got)
	}
	release()
	// Two aborts: the retry, and the parked writer's release.
	if s := tm.Stats(); s.SnapshotRetries != 1 || s.ConflictAborts != 1 || s.SnapshotCommits != 1 || s.Aborts != 2 {
		t.Fatalf("stats = %+v, want one read-only retry (a conflict abort), one read-only commit, two aborts", s)
	}
	quiesced(t, tm)
}

// TestReadOnlyNestingPanics: a read-only attempt publishes the thread status
// word like any other, which is what the one nesting guard reads.
func TestReadOnlyNestingPanics(t *testing.T) {
	tm := New(4, 2, 1)
	th := tm.Thread(0)
	nop := func(tx *Tx) error { return nil }
	for name, nest := range map[string]func(){
		"ReadOnly in ReadOnly":   func() { th.ReadOnly(func(*Tx) error { th.ReadOnly(nop); return nil }) },
		"Atomically in ReadOnly": func() { th.ReadOnly(func(*Tx) error { th.Atomically(nop); return nil }) },
		"ReadOnly in Atomically": func() { th.Atomically(func(*Tx) error { th.ReadOnly(nop); return nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			nest()
		}()
	}
	// Each panic unwound through runAttempt, which re-idled the thread.
	if _, err := th.Atomically(func(tx *Tx) error { tx.Store(0, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	quiesced(t, tm)
}

// TestOpacityEveryAttempt states the property DESIGN §8 promises of every
// attempt in every mode — the values fn reads are one committed state, even
// in an attempt that goes on to abort — and samples schedules for a
// violation. k cells hold a conserved sum; each round reads them all and
// checks the sum inside fn, then moves one unit between two cells, either
// from the values it read (Load+Store, the upgrade path) or from values
// re-read under the write claim (LoadW+Store). The second shape is the one
// that needs acquireWrite's stamp check: without it the claim hands back a
// value newer than the ones the attempt already holds. A quarter of the
// rounds run as ReadOnly. Claims go in ascending block order so the test
// samples interleavings rather than 2PL deadlock timeouts. The Group row of
// the same property is TestGroupTransferStress.
func TestOpacityEveryAttempt(t *testing.T) {
	const (
		k       = 8
		workers = 4
		rounds  = 20000
		total   = uint64(k * 1000)
	)
	tm := New(k, 2, workers)
	cell := func(c uint64) Addr { return Addr(2 * c) }
	for c := uint64(0); c < k; c++ {
		tm.StoreWord(cell(c), total/k)
	}
	var failed atomic.Bool
	check := func(what string, v *[k]uint64) {
		var sum uint64
		for _, x := range v {
			sum += x
		}
		if sum != total && !failed.Swap(true) {
			t.Errorf("%s attempt saw sum %d, want %d: %v", what, sum, total, *v)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := tm.Thread(w)
		rng := uint64(w)*0x9e3779b97f4a7c15 + 0x2545f491
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds && !failed.Load(); i++ {
				r := nextRand(&rng)
				var err error
				if r&3 == 0 {
					_, err = th.ReadOnly(func(tx *Tx) error {
						var v [k]uint64
						for c := range v {
							v[c] = tx.Load(cell(uint64(c)))
						}
						check("snapshot", &v)
						return nil
					})
				} else {
					lo, hi := r>>8%k, r>>16%k
					if lo == hi {
						continue
					}
					if lo > hi {
						lo, hi = hi, lo
					}
					// One unit moves lo -> hi or hi -> lo; -1 is ^0 in uint64.
					dlo, dhi := ^uint64(0), uint64(1)
					if r&4 != 0 {
						dlo, dhi = dhi, dlo
					}
					underClaim := i&1 != 0
					_, err = th.Atomically(func(tx *Tx) error {
						var v [k]uint64
						for c := range v {
							v[c] = tx.Load(cell(uint64(c)))
						}
						check("token", &v)
						if underClaim {
							v[lo] = tx.LoadW(cell(lo))
							v[hi] = tx.LoadW(cell(hi))
							check("token (under claim)", &v)
						}
						if v[lo]+dlo > total || v[hi]+dhi > total {
							return nil // the source cell is empty
						}
						tx.Store(cell(lo), v[lo]+dlo)
						tx.Store(cell(hi), v[hi]+dhi)
						return nil
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var v [k]uint64
	for c := range v {
		v[c] = tm.LoadWord(cell(uint64(c)))
	}
	check("final", &v)
	quiesced(t, tm)
}
