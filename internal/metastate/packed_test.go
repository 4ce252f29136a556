package metastate

import (
	"testing"
	"testing/quick"

	"tokentm/internal/mem"
)

// TestPackTable4a checks the in-memory encoding rows of Table 4a.
func TestPackTable4a(t *testing.T) {
	cases := []struct {
		m     Meta
		state PackedState
		attr  uint16
	}{
		{Anon(5), StateAnon, 5},
		{Zero, StateAnon, 0},
		{Read1(tidX), StateRead1, uint16(tidX)},
		{WriteT(tidY), StateWriteT, uint16(tidY)},
	}
	for _, c := range cases {
		p, over := Pack(c.m)
		if over {
			t.Errorf("Pack(%v) unexpectedly overflowed", c.m)
		}
		if p.State() != c.state || p.Attr() != c.attr {
			t.Errorf("Pack(%v) = state %d attr %d, want %d %d", c.m, p.State(), p.Attr(), c.state, c.attr)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(kind uint8, sum uint16, tid uint16) bool {
		var m Meta
		switch kind % 4 {
		case 0:
			m = Zero
		case 1:
			m = Anon(uint32(sum % maxPackedCount))
		case 2:
			m = Read1(mem.TID(tid&uint16(mem.MaxTID)) | 1)
		case 3:
			m = WriteT(mem.TID(tid&uint16(mem.MaxTID)) | 1)
		}
		p, over := Pack(m)
		if over {
			return false
		}
		got, err := Unpack(p, nil, 0)
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOverflowLimitless exercises the LimitLESS-style software count path.
func TestOverflowLimitless(t *testing.T) {
	const b mem.BlockAddr = 0x1234
	big := Anon(maxPackedCount + 10)
	p, over := Pack(big)
	if !over || !p.IsOverflow() {
		t.Fatalf("Pack(%v) should overflow, got %v over=%v", big, p, over)
	}

	tab := NewOverflowTable()
	p = tab.PackInto(b, big)
	if !p.IsOverflow() || tab.Len() != 1 {
		t.Fatalf("PackInto should record overflow: %v len=%d", p, tab.Len())
	}
	got, err := Unpack(p, tab, b)
	if err != nil || got != big {
		t.Fatalf("Unpack overflow = %v, %v", got, err)
	}

	// Shrinking the count back under the limit cleans up the table.
	p = tab.PackInto(b, Anon(3))
	if p.IsOverflow() || tab.Len() != 0 {
		t.Fatalf("PackInto small should clean up: %v len=%d", p, tab.Len())
	}

	// Unpacking an overflow encoding without a table entry is an error.
	if _, err := Unpack(packedOf(StateOverflow, 0), tab, b); err == nil {
		t.Error("expected error for missing overflow entry")
	}
	if _, err := Unpack(packedOf(StateOverflow, 0), nil, b); err == nil {
		t.Error("expected error for nil overflow table")
	}
}

func TestPackedIsSixteenBits(t *testing.T) {
	// The whole point of the S3.mp encoding is that the metastate fits in
	// 16 bits per 64-byte block; make sure the representation stays there.
	p, _ := Pack(WriteT(mem.MaxTID))
	if uint32(p)>>16 != 0 {
		t.Errorf("packed metastate exceeds 16 bits: %#x", p)
	}
	if Packed(0xffff).Attr() != attrMask {
		t.Errorf("attr mask wrong")
	}
}

// TestPackedTransitionsMatchMeta ties the host's packed transitions to the
// Meta rules the simulator runs. For every canonical packed word (all but a
// (1,·) or (T,·) with TID 0, which no transition writes; each round-trips,
// Pack(Unpack(p)) == p), for x the word's own TID and another one, and for
// mine in {0, 1}, each packed transition must equal
// Unpack, the Meta rule, then Pack — and refuse, returning p, wherever the
// Meta rule refuses or Pack would need the overflow escape. Every word in
// the overflow escape itself must refuse all three.
func TestPackedTransitionsMatchMeta(t *testing.T) {
	check := func(name string, p Packed, got Packed, gotOK bool, m Meta, ok bool) {
		want, wantOK := p, false
		if ok {
			if np, over := Pack(m); !over {
				want, wantOK = np, true
			}
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("%s on %#04x = %#04x, %v; want %#04x, %v", name, uint16(p), uint16(got), gotOK, uint16(want), wantOK)
		}
	}
	cases := 0
	for v := 0; v < 1<<16; v++ {
		p := Packed(v)
		if p.IsOverflow() {
			for _, x := range []mem.TID{tidX, tidY} {
				got, ok := p.AddReader(x)
				check("AddReader", p, got, ok, Zero, false)
				got, ok = p.DropReader(x)
				check("DropReader", p, got, ok, Zero, false)
				for mine := uint32(0); mine <= 1; mine++ {
					got, ok = p.ClaimWrite(x, mine)
					check("ClaimWrite", p, got, ok, Zero, false)
				}
			}
			continue
		}
		if p.State() != StateAnon && p.Attr() == 0 {
			continue
		}
		m, err := Unpack(p, nil, 0)
		if q, _ := Pack(m); err != nil || q != p {
			t.Fatalf("%#04x does not round-trip: %v, %v", uint16(p), m, err)
		}
		self := m.TID
		if self == mem.NoTID {
			self = tidX
		}
		for _, x := range []mem.TID{self, self%mem.MaxTID + 1} {
			got, ok := p.AddReader(x)
			fused, err := Fuse(m, Read1(x))
			check("AddReader", p, got, ok, fused, err == nil)

			got, ok = p.DropReader(x)
			released, taken := Release(m, x, 1)
			check("DropReader", p, got, ok, released, taken > 0)

			for mine := uint32(0); mine <= 1; mine++ {
				got, ok = p.ClaimWrite(x, mine)
				claimed, _, claimOK := ClaimWrite(m, x, mine)
				check("ClaimWrite", p, got, ok, claimed, claimOK)
				cases++
			}
		}
	}
	if cases != 4*(3<<14-2) {
		t.Fatalf("checked %d canonical cases", cases)
	}
}
