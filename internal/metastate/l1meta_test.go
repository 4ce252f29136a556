package metastate

import (
	"testing"

	"tokentm/internal/mem"
)

// TestL1Table4b checks every row of Table 4b: logical metastate vs in-cache
// bit patterns, with thread X on the local core.
func TestL1Table4b(t *testing.T) {
	const u = 5
	cases := []struct {
		l    L1Meta
		want Meta
	}{
		{L1Zero, Zero},
		{L1Meta{R: true, RPlus: true, Attr: u - 1}, Anon(u)},
		{L1Meta{RPlus: true, Attr: u}, Anon(u)},
		{L1Meta{R: true, Attr: uint16(tidX)}, Read1(tidX)},
		{L1Meta{Rp: true, Attr: uint16(tidY)}, Read1(tidY)},
		{L1Meta{W: true, Attr: uint16(tidX)}, WriteT(tidX)},
		{L1Meta{Wp: true, Attr: uint16(tidY)}, WriteT(tidY)},
	}
	for _, c := range cases {
		if !c.l.Valid() {
			t.Errorf("%v should be valid", c.l)
		}
		if got := c.l.Logical(); got != c.want {
			t.Errorf("%v Logical = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestL1Validity(t *testing.T) {
	invalid := []L1Meta{
		{R: true, W: true},
		{W: true, RPlus: true},
		{W: true, Wp: true},
		{Wp: true, R: true},
		{R: true, Rp: true},
	}
	for _, l := range invalid {
		if l.Valid() {
			t.Errorf("%v should be invalid", l)
		}
	}
	// R' and R+ simultaneously set is explicitly allowed (transiently,
	// after a context switch).
	if !(L1Meta{Rp: true, RPlus: true, Attr: 2}).Valid() {
		t.Error("R'+R+ combination should be valid")
	}
}

func TestL1FromMeta(t *testing.T) {
	cases := []struct {
		m    Meta
		cur  mem.TID
		want L1Meta
	}{
		{Zero, tidX, L1Zero},
		{WriteT(tidX), tidX, L1Meta{W: true, Attr: uint16(tidX)}},
		{WriteT(tidY), tidX, L1Meta{Wp: true, Attr: uint16(tidY)}},
		{Read1(tidX), tidX, L1Meta{R: true, Attr: uint16(tidX)}},
		{Read1(tidY), tidX, L1Meta{Rp: true, Attr: uint16(tidY)}},
		{Anon(7), tidX, L1Meta{RPlus: true, Attr: 7}},
	}
	for _, c := range cases {
		got, err := L1FromMeta(c.m, c.cur)
		if err != nil || got != c.want {
			t.Errorf("L1FromMeta(%v, X%d) = %v, %v; want %v", c.m, c.cur, got, err, c.want)
		}
	}
	if _, err := L1FromMeta(Anon(maxPackedCount+1), tidX); err == nil {
		t.Error("expected overflow error")
	}
}

// TestFigure4FastRelease walks the paper's Figure 4 example: thread TID 42
// reads block A, writes block B, then fast-releases both with a flash clear.
func TestFigure4FastRelease(t *testing.T) {
	const tid42 mem.TID = 42
	a, b := L1Zero, L1Zero

	// (b) add A to the read set: R=1, Attr=42 -> logically (1,42).
	res := a.AcquireRead(tid42)
	if !res.OK || res.TokensAcquired != 1 {
		t.Fatalf("read A: %+v", res)
	}
	if a.Logical() != Read1(tid42) || !a.R || a.Attr != 42 {
		t.Fatalf("A after read: %v", a)
	}

	// (c) add B to the write set: W=1, Attr=42 -> logically (T,42).
	m, needed, ok := ClaimWrite(b.Logical(), tid42, 0)
	if !ok || needed != T {
		t.Fatalf("write B: %v %d %v", m, needed, ok)
	}
	b, err := L1FromMeta(m, tid42)
	if err != nil || b.Logical() != WriteT(tid42) || !b.W || b.Attr != 42 {
		t.Fatalf("B after write: %v", b)
	}

	// (d) fast token release: flash clear R and W; both blocks return to
	// metastate (0,-).
	a.FlashClearRW()
	b.FlashClearRW()
	if a.Logical() != Zero || b.Logical() != Zero {
		t.Fatalf("after flash clear: A=%v B=%v", a.Logical(), b.Logical())
	}
}

// TestContextSwitchFlashOR verifies the flash-OR context switch and the
// R'-refusion rules (§4.4).
func TestContextSwitchFlashOR(t *testing.T) {
	// Thread X acquires a read token, then is context switched.
	l := L1Zero
	l.AcquireRead(tidX)
	l.FlashOR()
	if l.R || !l.Rp || l.Logical() != Read1(tidX) {
		t.Fatalf("after flash-OR: %v (logical %v)", l, l.Logical())
	}

	// Rule (i): the same thread X resumes and reads again; its own token
	// is reclaimed without a new acquisition.
	same := l
	res := same.AcquireRead(tidX)
	if !res.OK || res.TokensAcquired != 0 || !same.R || same.Rp {
		t.Fatalf("rule (i): %+v %v", res, same)
	}
	if same.Logical() != Read1(tidX) {
		t.Fatalf("rule (i) logical: %v", same.Logical())
	}

	// Rule (ii): a different thread Y reads; X's token is folded into an
	// anonymous count and Y acquires its own.
	other := l
	res = other.AcquireRead(tidY)
	if !res.OK || res.TokensAcquired != 1 {
		t.Fatalf("rule (ii): %+v", res)
	}
	if !other.R || other.Rp || !other.RPlus || other.Attr != 1 {
		t.Fatalf("rule (ii) bits: %v", other)
	}
	if other.Logical() != Anon(2) {
		t.Fatalf("rule (ii) logical: %v", other.Logical())
	}

	// Writes: W survives a flash-OR as W' and conflicts with others. The
	// owner's next store re-claims it for free and refills W, as core.Store
	// does.
	w := L1Meta{W: true, Attr: uint16(tidX)}
	w.FlashOR()
	if !w.Wp || w.W || w.Logical() != WriteT(tidX) {
		t.Fatalf("W flash-OR: %v", w)
	}
	m, needed, ok := ClaimWrite(w.Logical(), tidX, T)
	if wSame, err := L1FromMeta(m, tidX); !ok || needed != 0 || err != nil || !wSame.W {
		t.Fatalf("W' refusion by owner: %v %d %v -> %v", m, needed, ok, wSame)
	}
	if m, _, ok := ClaimWrite(w.Logical(), tidY, 0); ok || m != WriteT(tidX) {
		t.Fatalf("W' conflict: %v %v", m, ok)
	}
	wOther := w
	if res := wOther.AcquireRead(tidY); res.OK || res.ConflictWith != WriteT(tidX) {
		t.Fatalf("W' read conflict: %+v", res)
	}
}

// TestPostSwitchAnonymousFold exercises the transient R'+R+ combination: a
// context switch while the line already carried an anonymous count.
func TestPostSwitchAnonymousFold(t *testing.T) {
	// Line holds (u,-) with one token mine: R=1, R+=1, Attr=u-1 (u=3).
	l := L1Meta{R: true, RPlus: true, Attr: 2}
	l.FlashOR()
	if !l.Rp || !l.RPlus || l.Logical() != Anon(3) {
		t.Fatalf("after switch: %v logical %v", l, l.Logical())
	}
	// Next reader folds R' into the count and acquires: total 4.
	res := l.AcquireRead(tidY)
	if !res.OK || res.TokensAcquired != 1 || l.Logical() != Anon(4) {
		t.Fatalf("fold: %+v %v", res, l.Logical())
	}
}

// TestAcquireConflicts covers the conflict rows for reads and writes.
func TestAcquireConflicts(t *testing.T) {
	// Writer vs anonymous readers, vs an identified reader, and a
	// read-to-write upgrade with coexisting readers.
	for _, c := range []struct {
		l    L1Meta
		mine uint32
	}{
		{L1Meta{RPlus: true, Attr: 2}, 0},
		{L1Meta{Rp: true, Attr: uint16(tidY)}, 0},
		{L1Meta{R: true, RPlus: true, Attr: 1}, 1},
	} {
		if m, _, ok := ClaimWrite(c.l.Logical(), tidX, c.mine); ok || m != c.l.Logical() {
			t.Errorf("write vs %v: %v %v", c.l, m, ok)
		}
	}
	// Reader vs writer.
	l := L1Meta{Wp: true, Attr: uint16(tidY)}
	if res := l.AcquireRead(tidX); res.OK || res.ConflictWith != WriteT(tidY) {
		t.Errorf("read vs (T,Y): %+v", res)
	}
}

// TestUpgrade covers read-to-write upgrades acquiring the remaining T-1,
// before and after a context switch turned the read token into R'.
func TestUpgrade(t *testing.T) {
	for _, flashOR := range []bool{false, true} {
		l := L1Zero
		l.AcquireRead(tidX)
		if flashOR {
			l.FlashOR()
		}
		m, needed, ok := ClaimWrite(l.Logical(), tidX, 1)
		if !ok || needed != T-1 || m != WriteT(tidX) {
			t.Fatalf("upgrade (flash-OR %v): %v %d %v", flashOR, m, needed, ok)
		}
	}
}

// TestL1TokenAccounting runs AcquireRead and Release over every valid bit
// combination × Attr × thread: a read keeps the line valid and raises
// Logical().Sum by exactly the tokens acquired (a refused one changes
// nothing), and a release of n keeps it valid, takes at most n and drops
// Logical().Sum by exactly what it took.
func TestL1TokenAccounting(t *testing.T) {
	attrs := []uint16{0, 1, 2, 3, uint16(tidX), uint16(tidY)}
	ns := []uint32{1, 2, 3, 4, T}
	for bits := 0; bits < 32; bits++ {
		for _, attr := range attrs {
			l0 := L1Meta{R: bits&1 != 0, W: bits&2 != 0, Rp: bits&4 != 0, Wp: bits&8 != 0, RPlus: bits&16 != 0, Attr: attr}
			if !l0.Valid() {
				continue
			}
			sum := l0.Logical().Sum
			for _, cur := range []mem.TID{tidX, tidY} {
				l := l0
				res := l.AcquireRead(cur)
				switch {
				case !res.OK && l != l0:
					t.Errorf("%v AcquireRead(X%d) refused but changed the line to %v", l0, cur, l)
				case !l.Valid() || l.Logical().Sum != sum+res.TokensAcquired:
					t.Errorf("%v AcquireRead(X%d) = %+v -> %v (sum %d)", l0, cur, res, l, l.Logical().Sum)
				}
				for _, n := range ns {
					l := l0
					taken := l.Release(cur, n)
					if !l.Valid() || taken > n || l.Logical().Sum != sum-taken {
						t.Errorf("%v Release(X%d, %d) = %d -> %v (sum %d)", l0, cur, n, taken, l, l.Logical().Sum)
					}
				}
			}
		}
	}
}

// Property: flash-OR preserves the logical metastate.
func TestFlashORPreservesLogical(t *testing.T) {
	lines := []L1Meta{
		L1Zero,
		{R: true, Attr: uint16(tidX)},
		{W: true, Attr: uint16(tidX)},
		{Rp: true, Attr: uint16(tidY)},
		{Wp: true, Attr: uint16(tidY)},
		{RPlus: true, Attr: 4},
		{R: true, RPlus: true, Attr: 3},
	}
	for _, l := range lines {
		before := l.Logical()
		l.FlashOR()
		if got := l.Logical(); got != before {
			t.Errorf("flash-OR changed logical metastate: %v -> %v", before, got)
		}
		if l.R || l.W {
			t.Errorf("flash-OR left R/W set: %v", l)
		}
	}
}

// Property: flash clear releases exactly the current thread's tokens.
func TestFlashClearReleasesOwnTokensOnly(t *testing.T) {
	// Mine plus others' anonymous count: clearing R leaves the others.
	l := L1Meta{R: true, RPlus: true, Attr: 3} // (4,-), one mine
	l.FlashClearRW()
	if l.Logical() != Anon(3) {
		t.Errorf("flash clear: want (3,-), got %v", l.Logical())
	}
	// Others' R' token is untouched.
	l = L1Meta{Rp: true, Attr: uint16(tidY)}
	l.FlashClearRW()
	if l.Logical() != Read1(tidY) {
		t.Errorf("flash clear touched R': %v", l.Logical())
	}
}

func TestL1String(t *testing.T) {
	l := L1Meta{R: true, Attr: 42}
	if got := l.String(); got != "[R attr=42]" {
		t.Errorf("String = %q", got)
	}
	if got := L1Zero.String(); got != "[0 attr=0]" {
		t.Errorf("zero String = %q", got)
	}
}
