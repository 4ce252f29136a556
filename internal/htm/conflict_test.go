package htm

import (
	"testing"

	"tokentm/internal/mem"
)

func TestConflictKindString(t *testing.T) {
	want := map[ConflictKind]string{
		KindNone:           "none",
		KindReadVsWriter:   "read-vs-writer",
		KindWriteVsReaders: "write-vs-readers",
		KindWriteVsWriter:  "write-vs-writer",
		KindNonXact:        "non-transactional",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", k, got, name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown conflict kind did not panic")
		}
	}()
	_ = ConflictKind(99).String()
}

// TestXactResetAttribution pins the two Reset regimes the attribution
// fields need: lifetime cost accumulators survive (the committing attempt's
// record carries the whole journey), per-attempt abort attribution is
// cleared (each attempt gets a fresh first cause).
func TestXactResetAttribution(t *testing.T) {
	x := xact(1, 10)
	x.StallCycles = 100
	x.BackoffCycles = 200
	x.WastedCycles = 300
	x.AbortedBy = 7
	x.AbortBlock = 0x40
	x.AbortKind = KindWriteVsWriter

	x.Reset()
	if x.StallCycles != 100 || x.BackoffCycles != 200 || x.WastedCycles != 300 {
		t.Errorf("lifetime cost accumulators must survive Reset: stall=%d backoff=%d wasted=%d",
			x.StallCycles, x.BackoffCycles, x.WastedCycles)
	}
	if x.AbortedBy != mem.NoTID || x.AbortBlock != 0 || x.AbortKind != KindNone {
		t.Errorf("abort attribution must clear on Reset: by=%d block=%d kind=%s",
			x.AbortedBy, x.AbortBlock, x.AbortKind)
	}
}

func TestApplyResolutionAttributesVictims(t *testing.T) {
	req := xact(1, 10)
	v1, v2 := xact(2, 20), xact(3, 30)
	applyResolution(req, []*Xact{v1, v2}, []*Xact{v1, v2}, DecideStall, 0x80, KindWriteVsReaders)
	for _, v := range []*Xact{v1, v2} {
		if !v.AbortRequested {
			t.Fatalf("victim %d not marked for abort", v.TID)
		}
		if v.AbortedBy != req.TID || v.AbortBlock != 0x80 || v.AbortKind != KindWriteVsReaders {
			t.Errorf("victim %d attribution: by=%d block=%d kind=%s", v.TID, v.AbortedBy, v.AbortBlock, v.AbortKind)
		}
	}
	if req.AbortKind != KindNone || req.AbortRequested {
		t.Error("stalling requester must not be attributed an abort")
	}
}

// TestApplyResolutionFirstCauseWins: a victim already condemned by one
// conflict keeps that attribution when a second conflict also hits it.
func TestApplyResolutionFirstCauseWins(t *testing.T) {
	v := xact(5, 50)
	first, second := xact(1, 10), xact(2, 20)
	applyResolution(first, []*Xact{v}, []*Xact{v}, DecideStall, 0x40, KindWriteVsWriter)
	applyResolution(second, []*Xact{v}, []*Xact{v}, DecideStall, 0x80, KindReadVsWriter)
	if v.AbortedBy != first.TID || v.AbortBlock != 0x40 || v.AbortKind != KindWriteVsWriter {
		t.Errorf("second conflict overwrote first cause: by=%d block=%d kind=%s",
			v.AbortedBy, v.AbortBlock, v.AbortKind)
	}
}

func TestApplyResolutionSelfAbort(t *testing.T) {
	req := xact(9, 90)
	enemy := xact(1, 10)
	applyResolution(req, []*Xact{enemy}, nil, DecideAbortSelf, 0xc0, KindReadVsWriter)
	if req.AbortedBy != enemy.TID || req.AbortBlock != 0xc0 || req.AbortKind != KindReadVsWriter {
		t.Errorf("self-abort attribution: by=%d block=%d kind=%s", req.AbortedBy, req.AbortBlock, req.AbortKind)
	}
	// Self-abort is signalled by the access outcome, not AbortRequested.
	if req.AbortRequested {
		t.Error("DecideAbortSelf must not set AbortRequested on the requester")
	}
}

// TestApplyResolutionNonTransactionalWinner: a nil requester (strong
// atomicity) attributes its victims to NoTID.
func TestApplyResolutionNonTransactionalWinner(t *testing.T) {
	v := xact(3, 30)
	applyResolution(nil, []*Xact{v}, []*Xact{v}, DecideStall, 0x100, KindNonXact)
	if !v.AbortRequested || v.AbortedBy != mem.NoTID || v.AbortKind != KindNonXact {
		t.Errorf("non-transactional winner: requested=%v by=%d kind=%s", v.AbortRequested, v.AbortedBy, v.AbortKind)
	}
}

func TestCountConflict(t *testing.T) {
	var m Metrics
	m.CountConflict(KindNone)
	m.CountConflict(KindReadVsWriter)
	m.CountConflict(KindWriteVsReaders)
	m.CountConflict(KindWriteVsReaders)
	m.CountConflict(KindWriteVsWriter)
	m.CountConflict(KindNonXact)
	if m.ReadVsWriter != 1 || m.WriteVsReaders != 2 || m.WriteVsWriter != 1 || m.NonXactConf != 1 {
		t.Errorf("counters: %+v", m)
	}
}
