package coherence

// TestAllocFreeAnnotations is this package's allocation guard: MemSys.Access
// runs on every simulated memory access, so each row drives one of its
// transitions and must measure zero allocations per run once the blocks it
// touches have directory entries and cache sets. Between them the rows take
// every arm a request can: hits, forwards from an owner, upgrades and write
// misses that invalidate other copies, fills that evict a victim, and the
// paging model's EvictAll.

import (
	"testing"

	"tokentm/internal/mem"
)

func TestAllocFreeAnnotations(t *testing.T) {
	m := NewMemSys(4)
	sets := mem.BlockAddr(m.L1s[0].Sets())
	assoc := m.L1s[0].Assoc()
	const b = mem.BlockAddr(7)

	entries := []struct {
		name string
		fn   func()
	}{
		{"MemSys.Access/hit", func() {
			m.Access(0, b, true)
			m.Access(0, b, false)
			m.Access(0, b, true)
		}},
		{"MemSys.Access/upgrade", func() {
			// Core 1's read is forwarded by core 0, which downgrades and
			// writes back; core 0's write then upgrades its Shared copy
			// and invalidates core 1's.
			m.Access(1, b, false)
			m.Access(2, b, false)
			m.Access(0, b, true)
			if m.SharerMask(b) != 1 {
				t.Fatalf("sharers %b after the upgrade, want core 0 alone", m.SharerMask(b))
			}
		}},
		{"MemSys.Access/steal", func() {
			// A write miss forwarded by the Modified owner invalidates it.
			m.Access(1, b, true)
			m.Access(0, b, true)
		}},
		{"MemSys.Access/evict", func() {
			// assoc+1 blocks of one set, written in turn: every fill evicts
			// the least recently used line, a Modified one, which writes
			// back.
			for i := 0; i <= assoc; i++ {
				m.Access(3, sets*mem.BlockAddr(i)+1, true)
			}
		}},
		{"MemSys.EvictAll", func() {
			// The paging model's eviction: one core's copy goes, and the
			// other cores have none to lose.
			m.Access(2, b, false)
			m.EvictAll(b)
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
	if m.Stats.Evictions == 0 || m.Stats.Invalidations == 0 || m.Stats.Upgrades == 0 || m.Stats.Forwards == 0 {
		t.Fatalf("rows missed a transition: %+v", m.Stats)
	}
}
