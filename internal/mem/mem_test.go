package mem

import (
	"runtime"
	"testing"

	"tokentm/internal/statehash"
)

func TestStoreUntouchedWordReadsZero(t *testing.T) {
	s := NewStore()
	if got := s.Load(0x1234); got != 0 {
		t.Fatalf("untouched word = %d, want 0", got)
	}
	if s.Footprint() != 0 {
		t.Fatalf("empty store footprint = %d", s.Footprint())
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.StoreWord(0x1000, 7)
	s.StoreWord(0x1008, 8)
	if got := s.Load(0x1000); got != 7 {
		t.Fatalf("Load(0x1000) = %d, want 7", got)
	}
	if got := s.Load(0x100f); got != 8 {
		t.Fatalf("Load(0x100f) = %d, want 8 (same word as 0x1008)", got)
	}
	s.StoreWord(0x1000, 9)
	if got := s.Load(0x1000); got != 9 {
		t.Fatalf("overwritten word = %d, want 9", got)
	}
	if s.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", s.Footprint())
	}
}

func TestStoreZeroLowersFootprint(t *testing.T) {
	s := NewStore()
	s.StoreWord(0x40, 1)
	s.StoreWord(0x80, 2)
	s.StoreWord(0x40, 0)
	if s.Footprint() != 1 {
		t.Fatalf("footprint after zeroing one of two words = %d, want 1", s.Footprint())
	}
	if got := s.Load(0x40); got != 0 {
		t.Fatalf("zeroed word = %d", got)
	}
	s.StoreWord(0xc0, 0) // zero over implicit zero
	if s.Footprint() != 1 {
		t.Fatalf("footprint after storing zero to an untouched word = %d, want 1", s.Footprint())
	}
}

func TestStoreFingerprintIgnoresOrder(t *testing.T) {
	fp := func(s *Store) uint64 {
		h := statehash.New()
		s.FingerprintTo(h)
		return h.Sum()
	}
	a, b := NewStore(), NewStore()
	a.StoreWord(0x40, 1)
	a.StoreWord(0x10000, 2)
	a.StoreWord(0x48, 3)
	b.StoreWord(0x48, 3)
	b.StoreWord(0x7000, 5) // written, then zeroed: not state
	b.StoreWord(0x10000, 2)
	b.StoreWord(0x40, 1)
	b.StoreWord(0x7000, 0)
	if fp(a) != fp(b) {
		t.Fatal("stores with equal content fingerprint differently")
	}
	b.StoreWord(0x48, 4)
	if fp(a) == fp(b) {
		t.Fatal("stores with different content fingerprint equal")
	}
}

// TestStoreSizedByFootprint: words scattered one per KiB of address space
// (as workloads touch word 0 of random blocks) cost the store what the words
// cost, not what the address range would.
func TestStoreSizedByFootprint(t *testing.T) {
	const words, stride, budget = 4096, 1 << 10, 256 << 10
	s := NewStore()
	got := liveHeapGrowth(func() {
		for i := 0; i < words; i++ {
			s.StoreWord(Addr(i*stride), uint64(i+1))
		}
	})
	if s.Footprint() != words {
		t.Fatalf("footprint = %d, want %d", s.Footprint(), words)
	}
	if got >= budget {
		t.Fatalf("%d words at a %d B stride hold %d B of heap, budget %d", words, stride, got, budget)
	}
}

// liveHeapGrowth returns how much the live heap grew across f: what f left
// reachable, not the garbage it made on the way.
func liveHeapGrowth(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
