package kvstore

import (
	"sync"
	"sync/atomic"
	"testing"

	"tokentm/stm"
)

// TestOpacityEveryAttempt is the kvstore twin of the stm test of that name:
// the values one attempt's Gets return are one committed state, including
// in an attempt that goes on to abort, now that a Get is a guarded read and
// a Put a guarded claim. k keys hold a conserved sum; every transaction Gets
// them all and checks the sum inside fn, and three in four then move one
// unit between two of them by Put. The keys sit in one probe neighbourhood
// of a small table, so Gets cross each other's slots. Both stores run first
// attempts invisibly and retries by token; the sharded one goes through
// TxnSerials, the shard-marking path the server's transactions take.
func TestOpacityEveryAttempt(t *testing.T) {
	const (
		k       = 8
		workers = 4
		rounds  = 10000
		total   = uint64(k * 1000)
	)
	for _, s := range []Store{NewSTM(4*k, workers), NewSharded(2, 8*k, workers, stm.Options{})} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for key := uint64(1); key <= k; key++ {
				s.Handle(0).Put(key, total/k)
			}
			var failed atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				h := s.Handle(w)
				txn := h.Txn
				if sh, ok := h.(*ShardedHandle); ok {
					txn = func(readOnly bool, fn func(Tx) error) (uint64, error) {
						_, err := sh.TxnSerials(readOnly, fn)
						return 0, err
					}
				}
				rng := uint64(w)*0x9e3779b97f4a7c15 + 0x2545f491
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds && !failed.Load(); i++ {
						r := testRand(&rng)
						lo, hi := 1+r>>8%k, 1+r>>16%k
						if lo > hi {
							lo, hi = hi, lo
						}
						readOnly := r&3 == 0 || lo == hi
						if _, err := txn(readOnly, func(tx Tx) error {
							var v [k + 1]uint64
							var sum uint64
							for key := uint64(1); key <= k; key++ {
								v[key], _ = tx.Get(key)
								sum += v[key]
							}
							if sum != total && !failed.Swap(true) {
								t.Errorf("attempt saw sum %d, want %d: %v", sum, total, v[1:])
							}
							if readOnly || v[lo] == 0 {
								return nil
							}
							// Ascending key order, so the test samples
							// interleavings rather than 2PL deadlock timeouts.
							tx.Put(lo, v[lo]-1)
							tx.Put(hi, v[hi]+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			var sum uint64
			s.ForEach(func(_, v uint64) { sum += v })
			if sum != total {
				t.Errorf("final sum %d, want %d", sum, total)
			}
			st := s.Stats()
			t.Logf("%s: %d commits, %d aborts", s.Name(), st.Commits, st.Aborts)
		})
	}
}
