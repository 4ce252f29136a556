package metastate

import (
	"testing"

	"tokentm/internal/mem"
	"tokentm/internal/statehash"
)

// TestOverflowTableFingerprintIgnoresOrder: the overflow counts are a map, so
// they must hash in block order. Tables filled in two orders hold one state
// and must hash equal on every walk.
func TestOverflowTableFingerprintIgnoresOrder(t *testing.T) {
	fp := func(tab *OverflowTable) uint64 {
		h := statehash.New()
		tab.FingerprintTo(h)
		return h.Sum()
	}
	build := func(blocks ...mem.BlockAddr) *OverflowTable {
		tab := NewOverflowTable()
		for _, b := range blocks {
			tab.Set(b, uint32(b)+maxPackedCount)
		}
		return tab
	}
	a, b := build(0x40, 0x7, 0x1000, 0x9, 0x333), build(0x333, 0x1000, 0x9, 0x40, 0x7)
	want := fp(a)
	for range 20 {
		if fp(a) != want || fp(b) != want {
			t.Fatal("overflow tables with equal counts fingerprint differently")
		}
	}
	b.Set(0x9, maxPackedCount+1)
	if fp(b) == want {
		t.Fatal("overflow tables with different counts fingerprint equal")
	}
}
