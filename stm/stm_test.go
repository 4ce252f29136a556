package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tokentm/internal/metastate"
)

// quiesced asserts the token books balance at rest: every metastate word
// must be (0,-) — all tokens returned — once no transaction is running.
// This is the host-side version of the simulator's CheckBookkeeping.
func quiesced(t *testing.T, tm *TM) {
	t.Helper()
	for b := 0; b < tm.NumBlocks(); b++ {
		w := metastate.PackedWord(tm.metaw(uint32(b)).Load())
		if w.Packed() != metastate.PackedZero {
			t.Fatalf("block %d: metastate %#04x (stamp %d) at quiescence, want (0,-)",
				b, uint16(w.Packed()), w.Stamp())
		}
	}
}

func TestCommitAndSerial(t *testing.T) {
	tm := New(16, 8, 2)
	th := tm.Thread(0)
	var serials []uint64
	for i := 0; i < 3; i++ {
		s, err := th.Atomically(func(tx *Tx) error {
			tx.Store(Addr(i*8), uint64(100+i))
			return nil
		})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		serials = append(serials, s)
	}
	for i := 1; i < len(serials); i++ {
		if serials[i] <= serials[i-1] {
			t.Fatalf("serials not increasing: %v", serials)
		}
	}
	for i := 0; i < 3; i++ {
		if got := tm.LoadWord(Addr(i * 8)); got != uint64(100+i) {
			t.Fatalf("word %d = %d, want %d", i*8, got, 100+i)
		}
	}
	quiesced(t, tm)
}

func TestErrorRollsBack(t *testing.T) {
	tm := New(8, 8, 1)
	tm.StoreWord(0, 7)
	tm.StoreWord(8, 9)
	th := tm.Thread(0)
	errNo := errors.New("no")
	_, err := th.Atomically(func(tx *Tx) error {
		tx.Store(0, 1000)
		tx.Store(8, 2000)
		if tx.Load(0) != 1000 {
			t.Error("read-own-write failed")
		}
		return errNo
	})
	if !errors.Is(err, errNo) {
		t.Fatalf("err = %v, want %v", err, errNo)
	}
	if tm.LoadWord(0) != 7 || tm.LoadWord(8) != 9 {
		t.Fatalf("rollback failed: %d, %d", tm.LoadWord(0), tm.LoadWord(8))
	}
	quiesced(t, tm)
	if s := tm.Stats(); s.Commits != 0 || s.Aborts != 1 {
		t.Fatalf("stats = %+v, want 0 commits / 1 abort", s)
	}
}

// TestUpgradeFoldsReadToken pins the PR 5 bug class on the host side: a
// read-to-write upgrade must fold the upgrader's own read token into the
// all-token claim. If it double-counted, the commit release would leave a
// stranded token (or panic) — quiesced catches both, on commit and abort.
// Only a visible attempt (readModes' "group") has a token to fold; the
// invisible row is the same shape as a fresh claim, and no Upgrade.
func TestUpgradeFoldsReadToken(t *testing.T) {
	readModes(t, func(t *testing.T, tm *TM, th *Thread, atomically func(func(tx *Tx) error) error) {
		tm.StoreWord(0, 41)
		var visible bool
		if err := atomically(func(tx *Tx) error {
			visible = tx.visible
			v := tx.Load(0)  // read token, if visible
			tx.Store(0, v+1) // upgrade: fold the read token into (T,self)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if tm.LoadWord(0) != 42 {
			t.Fatalf("word 0 = %d, want 42", tm.LoadWord(0))
		}
		quiesced(t, tm)
		want := uint64(0)
		if visible {
			want = 1
		}
		if s := tm.Stats(); s.Upgrades != want {
			t.Fatalf("upgrades = %d, want %d", s.Upgrades, want)
		}

		// Same shape, aborted: the undo must restore the value and the release
		// must return all T tokens exactly once.
		boom := errors.New("boom")
		if err := atomically(func(tx *Tx) error {
			tx.Store(0, tx.Load(0)*10)
			return boom
		}); !errors.Is(err, boom) {
			t.Fatal(err)
		}
		if tm.LoadWord(0) != 42 {
			t.Fatalf("abort rollback: word 0 = %d, want 42", tm.LoadWord(0))
		}
		quiesced(t, tm)
	})
}

func TestPanicReleasesTokens(t *testing.T) {
	tm := New(8, 8, 1)
	tm.StoreWord(16, 5)
	th := tm.Thread(0)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("user panic swallowed")
			}
		}()
		th.Atomically(func(tx *Tx) error {
			tx.Store(16, 99)
			panic("user bug")
		})
	}()
	if tm.LoadWord(16) != 5 {
		t.Fatalf("panic rollback: word 16 = %d, want 5", tm.LoadWord(16))
	}
	quiesced(t, tm)
	// The thread must be reusable after the panic.
	if _, err := th.Atomically(func(tx *Tx) error { tx.Store(16, 6); return nil }); err != nil {
		t.Fatal(err)
	}
	if tm.LoadWord(16) != 6 {
		t.Fatalf("word 16 = %d after recovery, want 6", tm.LoadWord(16))
	}
}

// TestConcurrentCounter is the classic STM smoke test: every increment to a
// single hot word must survive full contention.
func TestConcurrentCounter(t *testing.T) {
	const workers, incs = 8, 400
	tm := New(4, 8, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := tm.Thread(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				if _, err := th.Atomically(func(tx *Tx) error {
					tx.Store(0, tx.Load(0)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := tm.LoadWord(0); got != workers*incs {
		t.Fatalf("counter = %d, want %d", got, workers*incs)
	}
	quiesced(t, tm)
	s := tm.Stats()
	if s.Commits != workers*incs {
		t.Fatalf("commits = %d, want %d", s.Commits, workers*incs)
	}
}

// TestConcurrentTransfers checks isolation: random transfers between
// accounts conserve the total, and every in-transaction snapshot of the two
// touched accounts is internally consistent.
func TestConcurrentTransfers(t *testing.T) {
	const workers, accounts, txns, initial = 6, 32, 500, 1000
	tm := New(accounts, 8, workers)
	for a := 0; a < accounts; a++ {
		tm.StoreWord(Addr(a*8), initial)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := tm.Thread(w)
		rng := uint64(w + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				from := Addr(nextRand(&rng) % accounts * 8)
				to := Addr(nextRand(&rng) % accounts * 8)
				if from == to {
					continue
				}
				if _, err := th.Atomically(func(tx *Tx) error {
					f, g := tx.Load(from), tx.Load(to)
					if f == 0 {
						return nil
					}
					tx.Store(from, f-1)
					tx.Store(to, g+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var total uint64
	for a := 0; a < accounts; a++ {
		total += tm.LoadWord(Addr(a * 8))
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*initial)
	}
	quiesced(t, tm)
}

// TestLargeFootprintSpillsAndReleases drives transactions to and past the
// fast-release size, inlineLog entries in each log. Each log on its own
// decides the count: a footprint of exactly inlineLog entries is one fast
// release and one more entry is one slow release. A footprint of three
// times the size must then log, release and roll back like a small one.
func TestLargeFootprintSpillsAndReleases(t *testing.T) {
	boundary := []struct {
		log  string
		step func(tx *Tx, i int)
	}{
		{"read", func(tx *Tx, i int) { tx.Load(Addr(i * 2)) }},   // a first attempt's reads are logged
		{"write", func(tx *Tx, i int) { tx.LoadW(Addr(i * 2)) }}, // a claim with no undo entry
		{"undo", func(tx *Tx, i int) { tx.Store(0, uint64(i)) }}, // one claim, an undo entry per store
	}
	for _, c := range boundary {
		for _, n := range []int{inlineLog, inlineLog + 1} {
			tm := New(2*inlineLog, 2, 1)
			if _, err := tm.Thread(0).Atomically(func(tx *Tx) error {
				for i := 0; i < n; i++ {
					c.step(tx, i)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			quiesced(t, tm)
			fast := uint64(0)
			if n <= inlineLog {
				fast = 1
			}
			if s := tm.Stats(); s.FastReleases != fast || s.SlowReleases != 1-fast {
				t.Errorf("%s log of %d entries: releases fast=%d slow=%d, want %d/%d",
					c.log, n, s.FastReleases, s.SlowReleases, fast, 1-fast)
			}
		}
	}

	const blocks = 3 * inlineLog
	tm := New(blocks, 2, 1)
	th := tm.Thread(0)
	if _, err := th.Atomically(func(tx *Tx) error {
		for b := 0; b < blocks; b++ {
			tx.Store(Addr(b*2), uint64(b))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		if got := tm.LoadWord(Addr(b * 2)); got != uint64(b) {
			t.Fatalf("word %d = %d, want %d", b*2, got, b)
		}
	}
	quiesced(t, tm)
	s := tm.Stats()
	if s.SlowReleases != 1 || s.FastReleases != 0 {
		t.Fatalf("releases fast=%d slow=%d, want 0/1", s.FastReleases, s.SlowReleases)
	}

	// And the abort of a large transaction must undo every write.
	boom := errors.New("boom")
	if _, err := th.Atomically(func(tx *Tx) error {
		for b := 0; b < blocks; b++ {
			tx.Store(Addr(b*2), 7777)
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal("want abort")
	}
	for b := 0; b < blocks; b++ {
		if got := tm.LoadWord(Addr(b * 2)); got != uint64(b) {
			t.Fatalf("abort left word %d = %d, want %d", b*2, got, b)
		}
	}
	quiesced(t, tm)
}

// TestReadersDoNotConflict proves degree-of-parallelism at the protocol
// level: many concurrent read-only transactions over the same blocks commit
// without a single abort.
func TestReadersDoNotConflict(t *testing.T) {
	const workers, reads = 8, 300
	tm := New(16, 8, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := tm.Thread(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				th.Atomically(func(tx *Tx) error {
					var sum uint64
					for b := 0; b < 16; b++ {
						sum += tx.Load(Addr(b * 8))
					}
					_ = sum
					return nil
				})
			}
		}()
	}
	wg.Wait()
	quiesced(t, tm)
	s := tm.Stats()
	if s.Aborts != 0 {
		t.Fatalf("read-only transactions aborted %d times", s.Aborts)
	}
	if s.Commits != workers*reads {
		t.Fatalf("commits = %d, want %d", s.Commits, workers*reads)
	}
}

func TestNestedAtomicallyPanics(t *testing.T) {
	tm := New(4, 8, 1)
	th := tm.Thread(0)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Atomically did not panic")
		}
	}()
	th.Atomically(func(tx *Tx) error {
		th.Atomically(func(tx *Tx) error { return nil })
		return nil
	})
}

func ExampleThread_Atomically() {
	tm := New(64, 8, 4)
	th := tm.Thread(0)
	th.Atomically(func(tx *Tx) error {
		tx.Store(0, tx.Load(0)+1)
		return nil
	})
	fmt.Println(tm.LoadWord(0))
	// Output: 1
}
