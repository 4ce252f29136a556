package htm

import (
	"testing"

	"tokentm/internal/mem"
	"tokentm/internal/statehash"
)

// TestXactFingerprintIgnoresSetOrder: the read and write sets are maps, so
// they must hash in block order. Transactions whose sets were built in two
// orders hold one state and must hash equal on every walk.
func TestXactFingerprintIgnoresSetOrder(t *testing.T) {
	fp := func(x *Xact) uint64 {
		h := statehash.New()
		x.FingerprintTo(h)
		return h.Sum()
	}
	build := func(blocks ...mem.BlockAddr) *Xact {
		x := xact(1, 10)
		for _, b := range blocks {
			x.ReadSet[b] = struct{}{}
			if b%2 == 0 {
				x.WriteSet[b] = struct{}{}
			}
		}
		return x
	}
	a, b := build(0x40, 0x7, 0x1000, 0x9, 0x332), build(0x332, 0x1000, 0x9, 0x40, 0x7)
	want := fp(a)
	for range 20 {
		if fp(a) != want || fp(b) != want {
			t.Fatal("transactions with equal read/write sets fingerprint differently")
		}
	}
	b.WriteSet[0x7] = struct{}{}
	if fp(b) == want {
		t.Fatal("transactions with different write sets fingerprint equal")
	}
}
