package metastate

// TestAllocFreeAnnotations is this package's allocation guard for the
// transitions the simulator's release walk and the host STM's CAS loops call
// on every access: each row runs one function over the states it can meet
// and must measure zero allocations per run.

import (
	"testing"

	"tokentm/internal/mem"
)

func TestAllocFreeAnnotations(t *testing.T) {
	const x, y = mem.TID(3), mem.TID(5)
	// Every Table 4b encoding, and the R'+R+ pair a context switch's
	// flash-OR leaves behind.
	lines := []L1Meta{
		{},
		{R: true, RPlus: true, Attr: 2},
		{RPlus: true, Attr: 2},
		{R: true, Attr: uint16(x)},
		{Rp: true, Attr: uint16(y)},
		{W: true, Attr: uint16(x)},
		{Wp: true, Attr: uint16(y)},
		{Rp: true, RPlus: true, Attr: 1},
	}
	metas := []Meta{Zero, WriteT(x), WriteT(y), Read1(x), Read1(y), Anon(3)}
	full, _ := Pack(Anon(maxPackedCount))
	over, _ := Pack(Anon(maxPackedCount + 1))
	var sink uint32

	entries := []struct {
		name string
		fn   func()
	}{
		{"L1Meta.Logical", func() {
			for _, l := range lines {
				sink += l.Logical().Sum
			}
		}},
		{"L1Meta.Release", func() {
			// Each encoding releasing one token, two tokens and a writer's
			// T, as thread x and as thread y.
			for _, tid := range []mem.TID{x, y} {
				for _, n := range []uint32{1, 2, T} {
					for _, l := range lines {
						sink += l.Release(tid, n)
					}
				}
			}
		}},
		{"Release", func() {
			for _, m := range metas {
				for _, n := range []uint32{1, T} {
					_, k := Release(m, x, n)
					sink += k
				}
			}
		}},
		{"Packed.AddReader", func() {
			// (0,-) -> (1,X) -> (2,-) -> (3,-), and a count at the limit
			// refuses.
			p, _ := PackedZero.AddReader(x)
			p, _ = p.AddReader(y)
			if p, _ = p.AddReader(x); p != packedOf(StateAnon, 3) {
				t.Fatal("AddReader miscounted")
			}
			if _, ok := full.AddReader(x); ok {
				t.Fatal("AddReader passed the 14-bit limit")
			}
		}},
		{"Packed.ClaimWrite/overflow", func() {
			if _, ok := over.ClaimWrite(x, 0); ok {
				t.Fatal("ClaimWrite claimed an overflowed count")
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
	_ = sink
}
