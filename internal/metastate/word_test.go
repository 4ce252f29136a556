package metastate

import (
	"testing"

	"tokentm/internal/mem"
)

// TestPackedWordRoundTrip checks that widening the 16 metabits into a 64-bit
// atomic word and back is lossless for every representable metastate and
// every stamp value.
func TestPackedWordRoundTrip(t *testing.T) {
	metas := []Meta{
		Zero,
		Read1(7),
		WriteT(3),
		Anon(1),
		Anon(5),
		Anon(maxPackedCount),
	}
	stamps := []uint64{0, 1, 42, 1<<48 - 1}
	for _, m := range metas {
		p, over := Pack(m)
		if over {
			t.Fatalf("%v unexpectedly overflows", m)
		}
		for _, st := range stamps {
			w := MakeWord(p, st)
			if w.Packed() != p {
				t.Errorf("MakeWord(%#04x, %d).Packed() = %#04x", uint16(p), st, uint16(w.Packed()))
			}
			if st < 1<<48 && w.Stamp() != st {
				t.Errorf("MakeWord(%#04x, %d).Stamp() = %d", uint16(p), st, w.Stamp())
			}
		}
	}
}

// TestPackedWordWith checks the read-transition helper: metabits replaced,
// stamp preserved (read traffic must never advance a block's stamp — see
// the tokenless-read contract in the type comment), old word untouched.
func TestPackedWordWith(t *testing.T) {
	p1, _ := Pack(Read1(9))
	p2, _ := Pack(WriteT(9))
	w := MakeWord(p1, 10)
	w2 := w.With(p2)
	if w2.Packed() != p2 {
		t.Errorf("With: metabits %#04x, want %#04x", uint16(w2.Packed()), uint16(p2))
	}
	if w2.Stamp() != 10 {
		t.Errorf("With: stamp %d, want 10 (preserved)", w2.Stamp())
	}
	if w.Packed() != p1 || w.Stamp() != 10 {
		t.Errorf("With mutated receiver: %#x", uint64(w))
	}
	if w2 == w {
		t.Errorf("With returned an identical word")
	}
}

// TestPackedWordZero pins the zero-value contract the host STM relies on: a
// zero word decodes to the transactionally-inactive metastate (0,-) with
// stamp 0 ("never written"), so a freshly allocated token-word array needs
// no initialization pass and is readable at any snapshot serial.
func TestPackedWordZero(t *testing.T) {
	var w PackedWord
	if w.Packed() != PackedZero || w.Stamp() != 0 {
		t.Fatalf("zero PackedWord decodes to %#04x stamp %d", uint16(w.Packed()), w.Stamp())
	}
	m, err := Unpack(w.Packed(), nil, mem.BlockAddr(0))
	if err != nil || !m.IsZero() {
		t.Fatalf("zero word unpacks to %v, %v", m, err)
	}
}
