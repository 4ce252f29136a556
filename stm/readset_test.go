package stm

// Contract for the per-attempt bookkeeping that replaced a per-block table:
// the token word marks an attempt's writes, the read set marks a visible
// attempt's token reads, and an invisible attempt keeps neither. Each test
// names the mechanism it pins; all are white-box and single-goroutine.

import (
	"math"
	"testing"

	"tokentm/internal/metastate"
)

// TestReadSetGrowsPastInit: a visible attempt (a one-member Group reads by
// token on every attempt) reads 300 blocks and upgrades every other one. The
// set grows past readSetInit; the plain reads hold the attempt's read token
// and the upgraded blocks its write claim, the read token folded in; every
// token comes back exactly once; and Upgrades counts the 150 fold-ins. The
// transaction runs twice over the same blocks, so an entry outliving its
// attempt would skip the second run's token and show up here.
func TestReadSetGrowsPastInit(t *testing.T) {
	const n = 300
	tm := New(512, 1, 1)
	th := tm.Thread(0)
	g := NewGroup(th)
	for run := 1; run <= 2; run++ {
		if _, err := g.Atomically(func(gt *GroupTx) error {
			tx := gt.Tx(0)
			for a := Addr(0); a < n; a++ {
				tx.Load(a)
			}
			for a := Addr(0); a < n; a += 2 {
				tx.Store(a, tx.Load(a)+1)
			}
			for b := uint32(0); b < n; b++ {
				if b%2 == 0 {
					wantMeta(t, tm, b, metastate.StateWriteT, th)
				} else {
					wantMeta(t, tm, b, metastate.StateRead1, th)
				}
			}
			if l := &tx.logs; len(l.read) != n || len(l.write) != n/2 {
				t.Fatalf("logs hold %d reads and %d writes, want %d and %d", len(l.read), len(l.write), n, n/2)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		quiesced(t, tm)
		if s := tm.Stats(); s.Upgrades != uint64(run*n/2) || s.Aborts != 0 {
			t.Fatalf("run %d: stats = %+v; want %d upgrades and no abort", run, s, run*n/2)
		}
	}
	if len(th.reads.slots) <= readSetInit {
		t.Fatalf("read set has %d slots after %d token reads, want it grown past %d", len(th.reads.slots), n, readSetInit)
	}
	for a := Addr(0); a < n; a++ {
		if want := uint64(1 - a%2); tm.LoadWord(a) != 2*want {
			t.Fatalf("word %d = %d, want %d", a, tm.LoadWord(a), 2*want)
		}
	}
}

// TestReadSetGenWrap: reset empties the set by bumping gen, so when gen
// wraps the table must be wiped — otherwise an entry from 2^32 attempts ago
// carries the current gen again. Block 5 is added at gen 1 and never
// removed; block 7 just before the wrap. Neither may read as held after it.
func TestReadSetGenWrap(t *testing.T) {
	s := &New(1, 1, 1).Thread(0).reads // a fresh thread's set, at gen 1
	s.add(5)
	s.gen, s.n = math.MaxUint32, 0 // 2^32-2 resets later
	s.add(7)
	if !s.has(7) || s.has(5) {
		t.Fatalf("before the wrap: has(7) = %v, has(5) = %v; want true, false", s.has(7), s.has(5))
	}
	s.reset()
	s.add(9)
	for _, b := range []uint32{0, 5, 7} {
		if s.has(b) {
			t.Errorf("after the wrap (gen %d): block %d reads as held", s.gen, b)
		}
	}
	if !s.has(9) {
		t.Error("after the wrap: block 9 added and not found")
	}
}

// TestOwnWriteThroughTokenWord: a block the attempt has written shows
// (T, self), and every read primitive reads it as it stands — the new value,
// with no read token, no read-log entry and no read-set entry. After an
// abort the claims are gone, so the next attempt reads the restored blocks
// like any other: by token, since it is a visible retry in both modes.
func TestOwnWriteThroughTokenWord(t *testing.T) {
	readModes(t, func(t *testing.T, tm *TM, th *Thread, atomically func(func(tx *Tx) error) error) {
		setRec(tm, 1, 7, 70)
		attempts := 0
		if err := atomically(func(tx *Tx) error {
			attempts++
			if attempts == 1 {
				tx.Store(3, 71)
				if !tx.Upsert2(4, 5, 9, 90) {
					t.Fatal("lost an empty record with no contenders")
				}
				if v := tx.Load(3); v != 71 {
					t.Fatalf("Load of own write = %d, want 71", v)
				}
				if g, v := tx.Lookup2(2, 3, 7); g != 7 || v != 71 {
					t.Fatalf("Lookup2 of own write = (%d,%d), want (7,71)", g, v)
				}
				if g, v := tx.Load2(4, 5); g != 9 || v != 90 {
					t.Fatalf("Load2 of own insert = (%d,%d), want (9,90)", g, v)
				}
				if len(tx.logs.read) != 0 || th.reads.has(1) || th.reads.has(2) {
					t.Fatalf("own writes left read footprint: %d logged reads", len(tx.logs.read))
				}
				tx.retry(&th.stats.ConflictAborts)
			}
			if g, v := tx.Lookup2(2, 3, 7); g != 7 || v != 70 {
				t.Fatalf("after the abort: (%d,%d), want (7,70)", g, v)
			}
			if g, _ := tx.Lookup2(4, 5, 9); g != 0 {
				t.Fatalf("after the abort: guard %d, want the insert undone", g)
			}
			if len(tx.logs.read) != 2 || !th.reads.has(1) || !th.reads.has(2) {
				t.Fatalf("after the abort: %d logged reads, want 2 token reads", len(tx.logs.read))
			}
			wantMeta(t, tm, 1, metastate.StateRead1, th)
			wantMeta(t, tm, 2, metastate.StateRead1, th)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if attempts != 2 {
			t.Fatalf("attempts = %d, want 2", attempts)
		}
		quiesced(t, tm)
	})
}

// TestReleaseReadTransitions pins releaseRead to Table 2 for every word a
// held read token can be in — (1,self) and (u,-) lose one token, and an
// upgraded (T,self) is left for its write release — and to a panic on every
// word it cannot be in, a foreign writer's above all: skipping that would
// lose the token the books say is ours.
func TestReleaseReadTransitions(t *testing.T) {
	tm := New(1, 1, 2)
	th, other := tm.Thread(0), tm.Thread(1)
	word := func(m metastate.Meta) uint64 {
		p, _ := metastate.Pack(m)
		return uint64(metastate.MakeWord(p, 5))
	}
	for _, c := range []struct {
		from, to metastate.Meta
		panics   bool
	}{
		{from: metastate.Read1(th.tid), to: metastate.Zero},
		{from: metastate.Anon(3), to: metastate.Anon(2)},
		{from: metastate.WriteT(th.tid), to: metastate.WriteT(th.tid)},
		{from: metastate.WriteT(other.tid), panics: true},
		{from: metastate.Read1(other.tid), panics: true},
		{from: metastate.Zero, panics: true},
	} {
		tm.meta[0].Store(word(c.from))
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			th.releaseRead(0)
			return false
		}()
		switch {
		case panicked != c.panics:
			t.Errorf("releaseRead on %v: panicked = %v, want %v", c.from, panicked, c.panics)
		case !c.panics && tm.meta[0].Load() != word(c.to):
			t.Errorf("releaseRead on %v left %#x, want %v (%#x)", c.from, tm.meta[0].Load(), c.to, word(c.to))
		}
	}
}
