package metastate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokentm/internal/mem"
)

const (
	tidX mem.TID = 7
	tidY mem.TID = 11
)

func TestMetaConstructorsAndPredicates(t *testing.T) {
	cases := []struct {
		m                          Meta
		zero, writer, ident, valid bool
		str                        string
	}{
		{Zero, true, false, false, true, "(0,-)"},
		{Read1(tidX), false, false, true, true, "(1,X7)"},
		{WriteT(tidX), false, true, true, true, "(T,X7)"},
		{Anon(4), false, false, false, true, "(u=4,-)"},
		{Anon(1), false, false, false, true, "(u=1,-)"},
		{Meta{Sum: 5, TID: tidX}, false, false, false, false, ""},
		{Meta{Sum: T, TID: mem.NoTID}, false, true, false, false, ""},
		{Meta{Sum: T + 1, TID: tidX}, false, false, false, false, ""},
	}
	for _, c := range cases {
		if got := c.m.IsZero(); got != c.zero {
			t.Errorf("%v IsZero = %v, want %v", c.m, got, c.zero)
		}
		if got := c.m.IsWriter(); got != c.writer {
			t.Errorf("%v IsWriter = %v, want %v", c.m, got, c.writer)
		}
		if got := c.m.IsIdentified(); got != c.ident {
			t.Errorf("%v IsIdentified = %v, want %v", c.m, got, c.ident)
		}
		if got := c.m.Valid(); got != c.valid {
			t.Errorf("%v Valid = %v, want %v", c.m, got, c.valid)
		}
		if c.valid && c.m.String() != c.str {
			t.Errorf("String = %q, want %q", c.m.String(), c.str)
		}
	}
}

// TestFissionTable3a checks every row of Table 3a.
func TestFissionTable3a(t *testing.T) {
	cases := []struct {
		before, after, newCopy Meta
	}{
		{Anon(3), Anon(3), Zero},
		{Anon(0), Anon(0), Zero},
		{Read1(tidX), Read1(tidX), Zero},
		{WriteT(tidX), WriteT(tidX), WriteT(tidX)},
	}
	for _, c := range cases {
		kept, nc := Fission(c.before)
		if kept != c.after || nc != c.newCopy {
			t.Errorf("Fission(%v) = %v,%v; want %v,%v", c.before, kept, nc, c.after, c.newCopy)
		}
	}
}

// TestFusionTable3b checks every cell of Table 3b, including the error cells.
func TestFusionTable3b(t *testing.T) {
	cases := []struct {
		a, b Meta
		want Meta
		err  bool
	}{
		// Row (v,-) with v=0 and v>0 against each column.
		{Anon(0), Anon(0), Anon(0), false},
		{Anon(2), Anon(3), Anon(5), false},
		{Anon(0), Read1(tidY), Read1(tidY), false},
		{Anon(2), Read1(tidY), Anon(3), false},
		{Anon(0), WriteT(tidY), WriteT(tidY), false},
		{Anon(2), WriteT(tidY), Zero, true},
		// Row (1,X).
		{Read1(tidX), Anon(0), Read1(tidX), false},
		{Read1(tidX), Anon(4), Anon(5), false},
		{Read1(tidX), Read1(tidY), Anon(2), false},
		{Read1(tidX), WriteT(tidY), Zero, true},
		// Row (T,X).
		{WriteT(tidX), Anon(0), WriteT(tidX), false},
		{WriteT(tidX), Anon(1), Zero, true},
		{WriteT(tidX), Read1(tidY), Zero, true},
		{WriteT(tidX), WriteT(tidX), WriteT(tidX), false},
		{WriteT(tidX), WriteT(tidY), Zero, true},
	}
	for _, c := range cases {
		got, err := Fuse(c.a, c.b)
		if (err != nil) != c.err {
			t.Errorf("Fuse(%v,%v) err = %v, want err=%v", c.a, c.b, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("Fuse(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestTable2Transitions walks the common metastate transitions of Table 2
// through the functions the simulator runs, refusals included.
func TestTable2Transitions(t *testing.T) {
	// Transaction Load: (0,-) -> (1,X).
	line := L1Zero
	res := line.AcquireRead(tidX)
	if !res.OK || res.TokensAcquired != 1 || line.Logical() != Read1(tidX) {
		t.Fatalf("load transition: %v %v", res, line.Logical())
	}
	// Conflicting Load: (T,Y) stays (T,Y).
	line, err := L1FromMeta(WriteT(tidY), tidX)
	if err != nil {
		t.Fatal(err)
	}
	res = line.AcquireRead(tidX)
	if res.OK || res.ConflictWith != WriteT(tidY) || line.Logical() != WriteT(tidY) {
		t.Fatalf("conflicting load: %v %v", res, line.Logical())
	}

	claims := []struct {
		m      Meta
		mine   uint32
		next   Meta
		needed uint32
		ok     bool
	}{
		{Zero, 0, WriteT(tidX), T, true},            // Transaction Store
		{Read1(tidX), 1, WriteT(tidX), T - 1, true}, // upgrade
		{Anon(1), 1, WriteT(tidX), T - 1, true},     // the lone anonymous token is mine
		{Anon(3), 3, WriteT(tidX), T - 3, true},     // §5.2: the count is all mine
		{WriteT(tidX), T, WriteT(tidX), 0, true},
		{Read1(tidX), 0, Read1(tidX), 0, false},
		{Anon(2), 0, Anon(2), 0, false}, // Conflicting Store rows
		{Anon(3), 2, Anon(3), 0, false},
		{WriteT(tidY), 0, WriteT(tidY), 0, false},
		{Read1(tidY), 1, Read1(tidY), 0, false}, // identified, not mine, whatever mine says
		{Read1(tidY), 5, Read1(tidY), 0, false},
	}
	for _, c := range claims {
		next, needed, ok := ClaimWrite(c.m, tidX, c.mine)
		if next != c.next || needed != c.needed || ok != c.ok {
			t.Errorf("ClaimWrite(%v, X, %d) = %v, %d, %v; want %v, %d, %v",
				c.m, c.mine, next, needed, ok, c.next, c.needed, c.ok)
		}
	}

	releases := []struct {
		m     Meta
		n     uint32
		next  Meta
		taken uint32
	}{
		{Read1(tidX), 1, Zero, 1},          // Release one Token
		{Anon(3), 1, Anon(2), 1},           // (v,-) -> (v-1,-)
		{Anon(3), 2, Anon(1), 2},           // fungible: k of them
		{Anon(2), 5, Zero, 2},              // at most v
		{WriteT(tidX), T, Zero, T},         // Release T tokens
		{WriteT(tidX), 1, WriteT(tidX), 0}, // a writer returns all T at once
		{WriteT(tidY), T, WriteT(tidY), 0},
		{Read1(tidY), 1, Read1(tidY), 0},
		{Read1(tidX), 0, Read1(tidX), 0},
		{Zero, 1, Zero, 0},
	}
	for _, c := range releases {
		if next, taken := Release(c.m, tidX, c.n); next != c.next || taken != c.taken {
			t.Errorf("Release(%v, X, %d) = %v, %d; want %v, %d", c.m, c.n, next, taken, c.next, c.taken)
		}
	}
}

// Property: fission followed by fusion restores the original metastate.
func TestFissionFusionRoundTrip(t *testing.T) {
	f := func(sum uint16, tid uint16, writer bool) bool {
		var m Meta
		switch {
		case writer:
			m = WriteT(mem.TID(tid%uint16(mem.MaxTID)) + 1)
		case sum%3 == 0:
			m = Anon(uint32(sum % 1000))
		case sum%3 == 1:
			m = Read1(mem.TID(tid%uint16(mem.MaxTID)) + 1)
		default:
			m = Zero
		}
		kept, nc := Fission(m)
		back, err := Fuse(kept, nc)
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fusion of reader-side metastates conserves the token count.
func TestFusionConservesReaderCounts(t *testing.T) {
	f := func(a, b uint16) bool {
		ma, mb := Anon(uint32(a%1000)), Anon(uint32(b%1000))
		got, err := Fuse(ma, mb)
		return err == nil && got.Sum == ma.Sum+mb.Sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fusion is commutative (where defined).
func TestFusionCommutative(t *testing.T) {
	metas := []Meta{Zero, Anon(1), Anon(2), Anon(5), Read1(tidX), Read1(tidY), WriteT(tidX), WriteT(tidY)}
	for _, a := range metas {
		for _, b := range metas {
			ab, errAB := Fuse(a, b)
			ba, errBA := Fuse(b, a)
			if (errAB != nil) != (errBA != nil) {
				t.Errorf("Fuse(%v,%v) error asymmetry", a, b)
				continue
			}
			if errAB == nil && ab != ba {
				t.Errorf("Fuse(%v,%v)=%v but Fuse(%v,%v)=%v", a, b, ab, b, a, ba)
			}
		}
	}
}

// Property: fusion is associative across random reader-side sequences.
func TestFusionAssociativeReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		ms := make([]Meta, n)
		for i := range ms {
			if rng.Intn(2) == 0 {
				ms[i] = Anon(uint32(rng.Intn(5)))
			} else {
				ms[i] = Read1(mem.TID(1 + rng.Intn(100)))
			}
		}
		// Left fold.
		left := Zero
		var err error
		for _, m := range ms {
			left, err = Fuse(left, m)
			if err != nil {
				t.Fatalf("left fold: %v", err)
			}
		}
		// Right fold.
		right := Zero
		for i := n - 1; i >= 0; i-- {
			right, err = Fuse(ms[i], right)
			if err != nil {
				t.Fatalf("right fold: %v", err)
			}
		}
		// Identity can be lost ((1,X) vs (1,-)) only if total == 1 and
		// exactly one identified reader; counts must always agree.
		if left.Sum != right.Sum {
			t.Fatalf("fold sums differ: %v vs %v over %v", left, right, ms)
		}
	}
}
