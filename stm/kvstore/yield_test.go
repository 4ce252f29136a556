package kvstore

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestTL2WaitsYield is stm's TestWaitsYield for the tl2-occ backend: every
// wait on a locked slot must yield, so a committer switched out with the
// lock bit set gets to clear it. At GOMAXPROCS(1) the holder sets the
// slot's lock bit, starts the waiter, yields once and clears the bit. The
// runtime preempts a goroutine only after 10 ms, so a waiter that spins
// costs at least that; one that yields costs microseconds.
func TestTL2WaitsYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const key = 7
	for _, row := range []struct {
		name string
		wait func(h Handle)
	}{
		{"Get", func(h Handle) { h.Get(key) }},
		{"Put", func(h Handle) { h.Put(key, 2) }},
		{"Txn put", func(h Handle) {
			h.Txn(false, func(tx Tx) error { tx.Put(key, 3); return nil })
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			st := NewTL2(16).(*tl2Store)
			st.Handle(0).Put(key, 1)
			slot := hashKey(key) & st.mask
			waiter := st.Handle(1)
			var d [5]time.Duration
			for i := range d {
				start := time.Now()
				w := st.locks[slot].Load()
				st.locks[slot].Store(w | 1)
				done := make(chan struct{})
				go func() { row.wait(waiter); close(done) }()
				runtime.Gosched()
				st.locks[slot].Store(w)
				<-done
				d[i] = time.Since(start)
			}
			slices.Sort(d[:])
			if med := d[2]; med >= 5*time.Millisecond {
				t.Errorf("median wait %v behind a holder that yields once, want under 5ms: the wait does not yield", med)
			}
		})
	}
}
