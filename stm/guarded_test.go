package stm

// Contract for the guarded pair, Tx.Lookup2 and Tx.Upsert2: a record whose
// guard word holds another key is passed over with no footprint, and any
// other record is read or claimed exactly as Load2 or Store would. Like
// invisible_test.go the scenarios are white-box, and all but one are
// single-goroutine: a second Thread commits from inside fn at the point the
// scenario needs. Each runs under both read protocols. Records are one block
// each, the guard in word 0.

import (
	"errors"
	"runtime"
	"testing"

	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// rec returns the guard and value addresses of the record in block b of a
// two-word-block TM, and setRec fills it at rest.
func rec(b uint32) (Addr, Addr) { return Addr(2 * b), Addr(2*b + 1) }

func setRec(tm *TM, b uint32, k, v uint64) {
	a1, a2 := rec(b)
	tm.StoreWord(a1, k)
	tm.StoreWord(a2, v)
}

func wantRec(t *testing.T, tm *TM, b uint32, k, v uint64) {
	t.Helper()
	a1, a2 := rec(b)
	if gk, gv := tm.LoadWord(a1), tm.LoadWord(a2); gk != k || gv != v {
		t.Errorf("block %d holds (%d,%d), want (%d,%d)", b, gk, gv, k, v)
	}
}

// wantMeta asserts block b's token state, as seen from inside fn.
func wantMeta(t *testing.T, tm *TM, b uint32, state metastate.PackedState, holder *Thread) {
	t.Helper()
	p := metastate.PackedWord(tm.metaw(b).Load()).Packed()
	if p.State() != state || holder != nil && mem.TID(p.Attr()) != holder.tid {
		t.Fatalf("block %d metastate %#04x, want state %d (holder %v)", b, uint16(p), state, holder != nil)
	}
}

// readModes runs scenario under each read protocol. "invisible" is the first
// attempt of a Thread.Atomically on thread 0; "group" makes thread 0 a member
// of a two-TM Group, which reads by token on every attempt. Threads 1 and 2
// are the scenario's to commit from.
func readModes(t *testing.T, scenario func(t *testing.T, tm *TM, th *Thread, atomically func(fn func(tx *Tx) error) error)) {
	t.Run("invisible", func(t *testing.T) {
		tm := New(32, 2, 3)
		th := tm.Thread(0)
		scenario(t, tm, th, func(fn func(tx *Tx) error) error {
			_, err := th.Atomically(fn)
			return err
		})
	})
	t.Run("group", func(t *testing.T) {
		tm := New(32, 2, 3)
		th := tm.Thread(0)
		g := NewGroup(th, New(1, 2, 1).Thread(0))
		scenario(t, tm, th, func(fn func(tx *Tx) error) error {
			_, err := g.Atomically(func(gt *GroupTx) error { return fn(gt.Tx(0)) })
			return err
		})
	})
}

// TestLookup2CrossedSlotLeavesNoFootprint: a record holding another key is
// not in the footprint. A commit to it waits for no token of ours, does not
// abort us, and — the stamp is now past rv — does not even ask for an
// extension when we cross it again.
func TestLookup2CrossedSlotLeavesNoFootprint(t *testing.T) {
	readModes(t, func(t *testing.T, tm *TM, th *Thread, atomically func(func(tx *Tx) error) error) {
		setRec(tm, 0, 5, 50)
		setRec(tm, 1, 7, 70)
		other := tm.Thread(1)
		attempts := 0
		if err := atomically(func(tx *Tx) error {
			attempts++
			rv := tx.rv
			for pass := 0; pass < 2; pass++ {
				if g, _ := tx.Lookup2(0, 1, 7); g != 5 {
					t.Fatalf("crossed guard = %d, want 5", g)
				}
				wantMeta(t, tm, 0, metastate.StateAnon, nil)
				if len(tx.logs.read) != 0 || th.reads.has(0) || tx.rv != rv {
					t.Fatalf("crossing left a footprint: %d logged reads, in read set %v, rv %d -> %d", len(tx.logs.read), th.reads.has(0), rv, tx.rv)
				}
				if pass == 0 {
					if claimed, _ := other.Upsert2(0, 1, 5, 51); !claimed {
						t.Fatal("Upsert2 lost a claim with no contenders")
					}
				}
			}
			if g, v := tx.Lookup2(2, 3, 7); g != 7 || v != 70 || len(tx.logs.read) != 1 {
				t.Fatalf("match = (%d,%d) with %d logged reads, want (7,70) and 1", g, v, len(tx.logs.read))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if s := tm.Stats(); attempts != 1 || s.Aborts != 0 {
			t.Fatalf("attempts = %d, stats = %+v; want one attempt and no abort", attempts, s)
		}
		quiesced(t, tm)
	})
}

// TestLookup2BindsOnce: a match and an empty guard join the footprint. A
// visible attempt takes one token per block however often the reads repeat
// and whichever read primitive repeats them; an invisible one keeps no set,
// so its read log holds every bound read, as TL2's read set does.
func TestLookup2BindsOnce(t *testing.T) {
	readModes(t, func(t *testing.T, tm *TM, th *Thread, atomically func(func(tx *Tx) error) error) {
		setRec(tm, 1, 7, 70)
		if err := atomically(func(tx *Tx) error {
			for i := 0; i < 3; i++ {
				if g, v := tx.Lookup2(2, 3, 7); g != 7 || v != 70 {
					t.Fatalf("match = (%d,%d), want (7,70)", g, v)
				}
				if g, _ := tx.Lookup2(4, 5, 7); g != 0 {
					t.Fatalf("empty guard = %d, want 0", g)
				}
			}
			tx.Load(3)
			tx.Load2(4, 5)
			want := 8
			if tx.visible {
				want = 2
			}
			if len(tx.logs.read) != want {
				t.Fatalf("%d logged reads, want %d", len(tx.logs.read), want)
			}
			for b := uint32(1); b <= 2; b++ {
				if tx.visible {
					wantMeta(t, tm, b, metastate.StateRead1, th)
				} else {
					wantMeta(t, tm, b, metastate.StateAnon, nil)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		quiesced(t, tm)
	})
}

// TestLookup2StampPastRv: on an invisible attempt a bound record stamped
// after rv extends the read serial, and that fails — inside Lookup2 — if a
// block already read has been rewritten.
func TestLookup2StampPastRv(t *testing.T) {
	for _, overwrite := range []bool{false, true} {
		tm := New(8, 2, 2)
		th, other := tm.Thread(0), tm.Thread(1)
		setRec(tm, 1, 7, 70)
		attempts, past := 0, 0
		if _, err := th.Atomically(func(tx *Tx) error {
			attempts++
			tx.Load(4)
			var wrote uint64
			if attempts == 1 {
				if overwrite {
					commitFrom(t, other, 4, 1)
				}
				_, wrote = other.Upsert2(2, 3, 7, 71)
			}
			if g, v := tx.Lookup2(2, 3, 7); g != 7 || v != 71 {
				t.Fatalf("match = (%d,%d), want (7,71)", g, v)
			}
			if !tx.visible && tx.rv < wrote {
				t.Fatalf("rv = %d after reading a block stamped %d", tx.rv, wrote)
			}
			past++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := 1
		if overwrite {
			want = 2
		}
		if s := tm.Stats(); attempts != want || past != 1 || s.ConflictAborts != uint64(want-1) {
			t.Fatalf("overwrite=%v: %d attempts, %d past the Lookup2, stats %+v; want %d attempts, 1 past", overwrite, attempts, past, s, want)
		}
		quiesced(t, tm)
	}
}

// TestTxUpsert2ClaimAndSkip: another key is skipped on the peek with nothing
// taken; an empty guard or the same key is claimed, logged and stored; the
// record is then this attempt's to read and rewrite; and an error rolls key
// and value back.
func TestTxUpsert2ClaimAndSkip(t *testing.T) {
	readModes(t, func(t *testing.T, tm *TM, th *Thread, atomically func(func(tx *Tx) error) error) {
		setRec(tm, 0, 5, 50)
		if err := atomically(func(tx *Tx) error {
			if tx.Upsert2(0, 1, 7, 70) {
				t.Fatal("claimed a record holding another key")
			}
			wantMeta(t, tm, 0, metastate.StateAnon, nil)
			if !tx.Upsert2(2, 3, 7, 70) {
				t.Fatal("lost an empty record with no contenders")
			}
			wantMeta(t, tm, 1, metastate.StateWriteT, th)
			if g, v := tx.Lookup2(2, 3, 7); g != 7 || v != 70 {
				t.Fatalf("own write reads back (%d,%d), want (7,70)", g, v)
			}
			if !tx.Upsert2(2, 3, 7, 71) || tx.Upsert2(2, 3, 9, 90) {
				t.Fatal("a held record takes its own key and no other")
			}
			if l := &tx.logs; len(l.read) != 0 || len(l.write) != 1 || len(l.undo) != 3 {
				t.Fatalf("logs hold %d reads, %d writes, %d undos; want 0, 1, 3", len(l.read), len(l.write), len(l.undo))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		if err := atomically(func(tx *Tx) error {
			if !tx.Upsert2(2, 3, 7, 99) || !tx.Upsert2(4, 5, 9, 90) {
				t.Fatal("lost a claim with no contenders")
			}
			return boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		wantRec(t, tm, 0, 5, 50)
		wantRec(t, tm, 1, 7, 71)
		wantRec(t, tm, 2, 0, 0)
		if s := tm.Stats(); s.Upgrades != 0 {
			t.Fatalf("stats = %+v, want no upgrade", s)
		}
		quiesced(t, tm)
	})
}

// TestTxUpsert2UpgradeOnRetry: rewriting a record the attempt has looked up
// works in either mode, but only a retry's is an Upgrade. On the first
// attempt the read took no token and the claim is a fresh one; on the retry
// the read took a token, and the claim folds it in rather than counting it
// twice.
func TestTxUpsert2UpgradeOnRetry(t *testing.T) {
	tm := New(8, 2, 1)
	th := tm.Thread(0)
	setRec(tm, 1, 7, 70)
	attempts := 0
	if _, err := th.Atomically(func(tx *Tx) error {
		attempts++
		_, v := tx.Lookup2(2, 3, 7)
		if attempts == 2 {
			wantMeta(t, tm, 1, metastate.StateRead1, th)
		}
		if !tx.Upsert2(2, 3, 7, v+1) {
			t.Fatal("lost the upgrade with no contenders")
		}
		wantMeta(t, tm, 1, metastate.StateWriteT, th)
		if g, v2 := tx.Lookup2(2, 3, 7); g != 7 || v2 != v+1 {
			t.Fatalf("own write reads back (%d,%d), want (7,%d)", g, v2, v+1)
		}
		if len(tx.logs.read) != 1 || len(tx.logs.write) != 1 {
			t.Fatalf("logs hold %d reads and %d writes, want 1 and 1", len(tx.logs.read), len(tx.logs.write))
		}
		if attempts == 1 {
			tx.retry(&th.stats.ConflictAborts) // lose this attempt: the next reads by token
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantRec(t, tm, 1, 7, 71)
	if s := tm.Stats(); attempts != 2 || s.Upgrades != 1 || s.Aborts != 1 {
		t.Fatalf("attempts = %d, stats = %+v; want 2 attempts, 1 upgrade (the retry's fold-in), 1 abort", attempts, s)
	}
	quiesced(t, tm)
}

// TestTxUpsert2LosesSlotUnderClaim is the chain-grew race: the guard is empty
// at the peek and holds another key once the claim lands. A parked reader
// keeps the block while the Upsert2 under test, past its peek, waits to
// claim it — ConflictReader counts only such rounds — and then takes the
// record itself by upgrade, which leaves no gap. Upsert2 must report false
// with the data untouched and the surplus claim held until commit. The
// waiter's patience is bounded; if it ran out before the reader committed,
// the loser cannot tell where it lost and the scenario reruns on a fresh
// block.
func TestTxUpsert2LosesSlotUnderClaim(t *testing.T) {
	readModes(t, func(t *testing.T, tm *TM, th *Thread, atomically func(func(tx *Tx) error) error) {
		reader := tm.Thread(1)
		for b := uint32(0); b < uint32(tm.NumBlocks()); b++ {
			k, v := rec(b)
			release := parkReader(reader, b)
			waits := th.stats.ConflictReader.Load()
			var (
				claimed  bool
				attempts int
				held     int // write tokens held once Upsert2 has returned
			)
			done := make(chan error, 1)
			go func() {
				done <- atomically(func(tx *Tx) error {
					attempts++
					claimed = tx.Upsert2(k, v, 7, 70)
					held = len(tx.logs.write)
					return nil
				})
			}()
			for th.stats.ConflictReader.Load() == waits {
				runtime.Gosched()
			}
			if !reader.tx.Upsert2(k, v, 9, 90) {
				t.Fatal("parked reader lost its own upgrade")
			}
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if claimed {
				t.Fatal("claimed a record another key had won")
			}
			wantRec(t, tm, b, 9, 90)
			quiesced(t, tm)
			if attempts > 1 {
				continue
			}
			if held != 1 {
				t.Fatalf("lost under the claim holding %d write tokens, want the surplus 1", held)
			}
			return
		}
		t.Fatal("the waiter gave up before the reader committed, on every block")
	})
}

// TestGuardedPairPanics: Upsert2 is a write, and both take one block.
func TestGuardedPairPanics(t *testing.T) {
	tm := New(4, 2, 1)
	th := tm.Thread(0)
	for name, call := range map[string]func(){
		"Upsert2 in ReadOnly": func() { th.ReadOnly(func(tx *Tx) error { tx.Upsert2(0, 1, 7, 70); return nil }) },
		"Lookup2 across":      func() { th.Atomically(func(tx *Tx) error { tx.Lookup2(0, 2, 7); return nil }) },
		"Upsert2 across":      func() { th.Atomically(func(tx *Tx) error { tx.Upsert2(0, 2, 7, 70); return nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
	wantRec(t, tm, 0, 0, 0)
	quiesced(t, tm)
}
