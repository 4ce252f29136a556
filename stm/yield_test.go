package stm

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestWaitsYield checks that every way of waiting on a held block yields the
// processor, so that a holder that is runnable but off the CPU gets to
// release — the host form of a large transaction outliving a descheduled
// token holder. At GOMAXPROCS(1) the holder stores to block 0 inside
// Atomically, starts the waiter, yields once and commits. The runtime
// preempts a goroutine only after it has run for 10 ms, so a waiter that
// spins keeps the only P at least that long; one that yields hands it back
// at once and costs microseconds.
func TestWaitsYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range []struct {
		name string
		wait func(th *Thread)
	}{
		{"Thread.Upsert2", func(th *Thread) { th.Upsert2(0, 1, 7, 2) }},
		{"Thread.Snapshot2", func(th *Thread) { th.Snapshot2(0, 1) }},
		{"Atomically store", func(th *Thread) {
			th.Atomically(func(tx *Tx) error { tx.Store(1, 3); return nil })
		}},
		{"ReadOnly load", func(th *Thread) {
			th.ReadOnly(func(tx *Tx) error { tx.Load(1); return nil })
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			tm := New(1, 2, 2)
			holder, waiter := tm.Thread(0), tm.Thread(1)
			var d [5]time.Duration
			for i := range d {
				start := time.Now()
				done := make(chan struct{})
				started := false
				// The waiter may doom the holder, so fn can run again.
				holder.Atomically(func(tx *Tx) error {
					tx.Store(0, 7)
					if !started {
						started = true
						go func() { row.wait(waiter); close(done) }()
						runtime.Gosched()
					}
					return nil
				})
				<-done
				d[i] = time.Since(start)
			}
			slices.Sort(d[:])
			if med := d[2]; med >= 5*time.Millisecond {
				t.Errorf("median wait %v behind a holder that yields once, want under 5ms: the wait does not yield", med)
			}
			quiesced(t, tm)
		})
	}
}
