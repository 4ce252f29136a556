package htm

// TestAllocFreeAnnotations is this package's allocation guard: each row
// drives one token-set or unroll path and must measure zero allocations per
// run once the set's storage has grown.

import (
	"testing"

	"tokentm/internal/coherence"
	"tokentm/internal/mem"
	"tokentm/internal/tmlog"
)

func TestAllocFreeAnnotations(t *testing.T) {
	const blocks = 64
	var s TokenSet
	// One-time growth: first touches allocate the count map and the sorted
	// block list; every later attempt reuses that storage.
	for i := 0; i < blocks; i++ {
		s.Add(mem.BlockAddr(i), 1)
	}
	s.Reset()

	// Unroll rig: each run logs one token record and one data record, then
	// unrolls them, restoring the data block.
	e := Eager{Mem: coherence.NewMemSys(1), Values: mem.NewStore()}
	th := &Thread{TID: 1, Log: tmlog.New(mem.Addr(1 << 40))}
	const dataBlk, tokenBlk = mem.BlockAddr(3), mem.BlockAddr(5)
	e.Values.StoreWord(dataBlk.Addr(), 7)

	entries := []struct {
		name string
		fn   func()
	}{
		{"Eager.Unroll", func() {
			th.Log.AppendToken(tokenBlk, 1)
			th.Log.AppendData(dataBlk, 0, [mem.WordsPerBlock]uint64{7})
			e.Values.StoreWord(dataBlk.Addr(), 9)
			if e.Unroll(th) == 0 || th.Log.Len() != 0 || e.Values.Load(dataBlk.Addr()) != 7 {
				t.Fatal("unroll did not restore the data block and empty the log")
			}
		}},
		{"TokenSet.Add", func() {
			s.Reset()
			// 37 is coprime to 64, so the walk hits every residue out of
			// order, exercising the sorted-insert shift path.
			for i := 0; i < blocks; i++ {
				s.Add(mem.BlockAddr(i*37%blocks), 2)
			}
			s.Add(mem.BlockAddr(blocks), 0) // no tokens: stays out of the set
			if s.Len() != blocks {
				t.Fatalf("want %d blocks, got %d", blocks, s.Len())
			}
		}},
		{"TokenSet.Get", func() {
			if s.Get(mem.BlockAddr(7)) == 0 {
				t.Fatal("block 7 should hold tokens")
			}
		}},
		{"TokenSet.Reset", func() {
			s.Reset()
			// Refill so the Get entry keeps seeing tokens regardless of
			// table order.
			for i := 0; i < blocks; i++ {
				s.Add(mem.BlockAddr(i), 1)
			}
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
}
