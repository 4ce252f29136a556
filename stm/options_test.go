package stm

// Contract for Options: MaxAttempts must turn an unwinnable conflict into
// ErrAborted with the thread reusable afterwards, and New must be
// NewWithOptions at the zero Options. The conflict scenarios are white-box: one thread parks holding
// a write token mid-attempt (the way runAttempt would between fn statements),
// the other runs a bounded transaction against it.

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestDefaultsReproduceTodaysBehavior runs the same deterministic workload on
// a TM built with New and one built with NewWithOptions at the zero Options
// and demands identical serials, final words, and statistics.
func TestDefaultsReproduceTodaysBehavior(t *testing.T) {
	run := func(tm *TM) ([]uint64, Stats) {
		th := tm.Thread(0)
		var serials []uint64
		for i := 0; i < 50; i++ {
			i := i
			s, err := th.Atomically(func(tx *Tx) error {
				a := Addr(uint(i%8) * uint(tm.WordsPerBlock()))
				tx.Store(a, tx.Load(a)+uint64(i))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			serials = append(serials, s)
		}
		words := make([]uint64, tm.NumWords())
		for a := range words {
			words[a] = tm.LoadWord(Addr(a))
		}
		for a, w := range words {
			serials = append(serials, uint64(a), w)
		}
		return serials, tm.Stats()
	}
	s1, st1 := run(New(16, 2, 2))
	s2, st2 := run(NewWithOptions(16, 2, 2, Options{}))
	if len(s1) != len(s2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, s1[i], s2[i])
		}
	}
	if st1 != st2 {
		t.Errorf("stats diverge:\n New:            %+v\n NewWithOptions: %+v", st1, st2)
	}
}

func TestNegativeOptionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWithOptions(MaxAttempts: -1) did not panic")
		}
	}()
	NewWithOptions(16, 2, 1, Options{MaxAttempts: -1})
}

// parkWriter opens an attempt on th and leaves it holding block b's write
// tokens, the way a transaction parked between two statements of fn would.
// The returned release func aborts that attempt and re-idles the thread.
func parkWriter(th *Thread, b uint32) (release func()) {
	tx := &th.tx
	th.beginAttempt(tx, true)
	tx.writeAcquire(b)
	return func() {
		tx.abortAttempt()
		th.status.Store(th.attempt<<statusShift | stateIdle)
	}
}

// parkReader is parkWriter's visible-reader twin: th is left holding one read
// token on block b, as a retry parked mid-fn would — birth ticket drawn, so
// the writers it blocks find it their elder and cannot doom it. The returned
// release func commits that attempt.
func parkReader(th *Thread, b uint32) (release func()) {
	tx := &th.tx
	th.beginAttempt(tx, true)
	th.ensureBirth()
	tx.Load(Addr(b) << th.tm.shift)
	return func() { tx.commitAttempt() }
}

// TestWritePathsClaimBeforeStoring pins the claim-before-store half of both
// transactional write paths: no data word of a block changes before the
// writer holds the block's write tokens. A parked elder reader keeps block 0,
// so a one-attempt writer spins out its claim and returns ErrAborted while a
// poller loads the block's words. A store made before the claim would show
// the poller the written value for the whole spin, even though the abort
// rolls it back. The log-before-store half is pinned by the rollback tests.
func TestWritePathsClaimBeforeStoring(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(tx *Tx)
	}{
		{"Store", func(tx *Tx) { tx.Store(1, 70) }},
		{"Upsert2", func(tx *Tx) { tx.Upsert2(0, 1, 7, 70) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := NewWithOptions(4, 2, 2, Options{MaxAttempts: 1})
			release := parkReader(tm.Thread(0), 0)
			var stop atomic.Bool
			polling := make(chan struct{})
			seen := make(chan uint64, 1)
			go func() {
				defer close(seen)
				for pass := 0; !stop.Load(); pass++ {
					for a := Addr(0); a < Addr(tm.WordsPerBlock()); a++ {
						if v := tm.LoadWord(a); v != 0 {
							seen <- v
							return
						}
					}
					if pass == 0 {
						close(polling)
					}
					runtime.Gosched()
				}
			}()
			<-polling
			_, err := tm.Thread(1).Atomically(func(tx *Tx) error {
				tc.write(tx)
				return nil
			})
			stop.Store(true)
			if v, ok := <-seen; ok {
				t.Errorf("poller saw %d in block 0 before the writer claimed it", v)
			}
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("writer against a parked elder reader = %v, want ErrAborted", err)
			}
			release()
			quiesced(t, tm)
		})
	}
}

// TestMaxAttemptsSurfacesErrAborted pins the bounded-retry surface the
// network front end is built on: a transaction that cannot win its conflict
// returns ErrAborted after exactly MaxAttempts attempts, every effect rolled
// back, and the thread immediately usable for the next transaction.
func TestMaxAttemptsSurfacesErrAborted(t *testing.T) {
	tm := NewWithOptions(16, 2, 2, Options{MaxAttempts: 3})
	release := parkWriter(tm.Thread(0), 0)

	th := tm.Thread(1)
	other := Addr(5 * tm.WordsPerBlock())
	if _, err := th.Atomically(func(tx *Tx) error {
		tx.Store(other, 1) // must be undone on the final abort
		tx.Load(0)         // conflicts with the parked writer forever
		return nil
	}); !errors.Is(err, ErrAborted) {
		t.Fatalf("Atomically = %v, want ErrAborted", err)
	}
	if got := tm.Stats().Aborts; got != 3 {
		t.Errorf("Aborts = %d, want 3 (one per bounded attempt)", got)
	}
	if v := tm.LoadWord(other); v != 0 {
		t.Errorf("word %d = %d after ErrAborted, want 0 (rolled back)", other, v)
	}

	// The thread is reusable: same Thread, disjoint block, must commit.
	if _, err := th.Atomically(func(tx *Tx) error {
		tx.Store(other, 7)
		return nil
	}); err != nil {
		t.Fatalf("post-abort Atomically = %v", err)
	}
	if v := tm.LoadWord(other); v != 7 {
		t.Errorf("word %d = %d, want 7", other, v)
	}
	release()
}

// TestMaxAttemptsBoundsReadOnly covers the snapshot path: a read-only
// transaction stuck behind a parked writer gives up with ErrAborted instead
// of retrying forever.
func TestMaxAttemptsBoundsReadOnly(t *testing.T) {
	tm := NewWithOptions(16, 2, 2, Options{MaxAttempts: 2})
	release := parkWriter(tm.Thread(0), 0)

	th := tm.Thread(1)
	if _, err := th.ReadOnly(func(tx *Tx) error {
		tx.Load(0)
		return nil
	}); !errors.Is(err, ErrAborted) {
		t.Fatalf("ReadOnly = %v, want ErrAborted", err)
	}
	release()

	// Writer gone: the same thread's next snapshot succeeds.
	if _, err := th.ReadOnly(func(tx *Tx) error {
		tx.Load(0)
		return nil
	}); err != nil {
		t.Fatalf("post-release ReadOnly = %v", err)
	}
}
