package stm

// TestAllocFreeAnnotations cross-checks this package's //tokentm:allocfree
// annotations at runtime: the table's key set must equal the annotation
// list the static analyzer sees (lint.AllocFreeFuncs), and each entry must
// measure zero allocations per run on its steady-state path. The drivers
// are white-box — beginAttempt/commitAttempt bracket the protocol calls the
// way runAttempt does, minus the deferred recover that testing.AllocsPerRun
// cannot see through. A function with a second steady-state path gets a
// second row named "Func/path"; the unsuffixed rows read visibly.

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"tokentm/internal/lint"
)

func TestAllocFreeAnnotations(t *testing.T) {
	tm := New(64, 4, 2)
	th := tm.Thread(0)
	tx := &th.tx
	bigTM := New(512, 1, 1)

	words := Addr(tm.WordsPerBlock())
	a := 3 * words  // block 3
	u := 11 * words // block 11, reserved for the Upsert2 entry

	// One-time growth: the first transactions warm every stats field. Each
	// entry also runs three warm-up rounds before measuring, which grow the
	// read set and the spill logs to their steady size.
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

	// The guarded pair: n records from block 16 on, key b in word 0 of block
	// b — a match binds the read, any other guard passes over the record.
	// n = 32 spills the read log, and with it the write and undo logs.
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
			if tx.logs.nRead != int(n) {
				t.Fatalf("read log holds %d entries, want %d", tx.logs.nRead, n)
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
			if tx.logs.nWrite != int(n) {
				t.Fatalf("write log holds %d entries, want %d", tx.logs.nWrite, n)
			}
			tx.commitAttempt()
		}
	}

	// read32 reads 32 blocks, enough to spill the read log past its inline
	// array. It has fn's signature so the ReadOnly row can pass it as is.
	read32 := func(tx *Tx) error {
		for b := Addr(16); b < 48; b++ {
			tx.Load(b * words)
		}
		if tx.logs.nRead != 32 || tx.logs.inline() {
			t.Fatalf("read log holds %d entries inline=%v, want 32 spilled", tx.logs.nRead, tx.logs.inline())
		}
		return nil
	}

	entries := []struct {
		name string
		fn   func()
	}{
		{"Tx.Load", load(true)},
		{"Tx.Load/invisible", load(false)},
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
		{"Tx.commitAttempt", func() {
			th.beginAttempt(tx, true)
			tx.Store(a, tx.Load(a)+1)
			tx.commitAttempt()
		}},
		{"Tx.commitAttempt/spilled-read-log", func() {
			// 32 invisible reads and one upgrade: the commit validates a
			// read log that has spilled past the inline array.
			th.beginAttempt(tx, false)
			read32(tx)
			tx.Store(16*words, 1)
			tx.commitAttempt()
		}},
		{"Tx.commitAttempt/read-only", func() {
			// The same 32 reads through the ReadOnly driver: the log spills,
			// the commit returns rv. The rows around this one open attempts
			// by hand, and only a driver sets Tx.ro.
			if _, err := th.ReadOnly(read32); err != nil {
				t.Fatal(err)
			}
			tx.ro = false
		}},
		{"Tx.abortAttempt", func() {
			th.beginAttempt(tx, true)
			tx.Store(a, 99)
			tx.abortAttempt()
		}},
		{"Thread.Snapshot2", func() {
			th.Snapshot2(a, a+1)
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
		}},
	}

	names := make([]string, 0, len(entries))
	for _, e := range entries {
		fn, _, _ := strings.Cut(e.name, "/")
		names = append(names, fn)
	}
	sort.Strings(names)
	names = slices.Compact(names)
	want, err := lint.AllocFreeFuncs(".")
	if err != nil {
		t.Fatalf("scanning annotations: %v", err)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("annotation/table drift:\n annotated: %v\n table:     %v", want, names)
	}

	for _, e := range entries {
		e := e
		t.Run(e.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				e.fn()
			}
			if n := testing.AllocsPerRun(100, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
		})
	}
}
