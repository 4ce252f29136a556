package core

// TestAllocFreeAnnotations is this package's allocation guard: the table
// drives the protocol's per-access and per-commit paths — probe, enemy
// enumeration, both release paths, abort — and asserts testing.AllocsPerRun
// == 0 on each once warm. Rows for a writer-held block and for tokens that
// went home with an evicted line take the arms a small transaction never
// reaches.

import (
	"testing"

	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

func TestAllocFreeAnnotations(t *testing.T) {
	// Probe rig: three cores hold identified reader tokens on blkP and stay
	// in-transaction, so probe/enemy enumeration sees a populated block.
	tokP, thsP := benchRig(4)
	blkP := benchHeap.Block()
	for _, th := range thsP[1:] {
		x := &htm.Xact{TID: th.TID, Core: th.Core}
		benchBegin(tokP, th, x)
		if _, acc := tokP.Load(th, benchHeap, 0); acc.Outcome != htm.OK {
			t.Fatal("setup load conflicted")
		}
	}

	// A writer: core 1 also holds all tokens on blkW.
	blkW := (benchHeap + 64*mem.BlockBytes).Block()
	if acc := tokP.Store(thsP[1], blkW.Addr(), 1, 0); acc.Outcome != htm.OK {
		t.Fatal("setup store conflicted")
	}

	// Commit rigs: one per release path, each closure runs a whole small
	// transaction so every iteration starts from identical protocol state.
	tokF, thsF := benchRig(1)
	thF := thsF[0]
	xF := &htm.Xact{TID: thF.TID, Core: 0}
	tokS, thsS := benchRig(1, WithoutFastRelease())
	thS := thsS[0]
	xS := &htm.Xact{TID: thS.TID, Core: 0}

	smallXact := func(tok *TokenTM, th *htm.Thread, x *htm.Xact) {
		benchBegin(tok, th, x)
		for j := 0; j < benchReadBlocks; j++ {
			a := benchHeap + mem.Addr(j*mem.BlockBytes)
			if _, acc := tok.Load(th, a, 0); acc.Outcome != htm.OK {
				t.Fatal("load conflicted")
			}
		}
		for j := 0; j < benchWriteBlocks; j++ {
			a := benchHeap + mem.Addr(j*mem.BlockBytes)
			if acc := tok.Store(th, a, 1, 0); acc.Outcome != htm.OK {
				t.Fatal("store conflicted")
			}
		}
	}

	// evictedXact reads assoc+1 blocks of one L1 set: the first read's line
	// is evicted, and its token goes home with the metastate.
	sets := mem.Addr(tokS.Mem.L1s[0].Sets())
	assoc := tokS.Mem.L1s[0].Assoc()
	evictedXact := func() {
		benchBegin(tokS, thS, xS)
		for j := 0; j <= assoc; j++ {
			a := benchHeap + mem.Addr(j)*sets*mem.BlockBytes
			if _, acc := tokS.Load(thS, a, 0); acc.Outcome != htm.OK {
				t.Fatal("load conflicted")
			}
		}
	}

	pr := probeResult{readers: make([]mem.TID, 0, 8)}
	anonMeta := metastate.Anon(3)
	enemyTIDs := []mem.TID{thsP[1].TID, thsP[2].TID, thsP[1].TID}

	entries := []struct {
		name string
		fn   func()
	}{
		{"probeResult.collect", func() {
			pr.readers = pr.readers[:0]
			pr.writer = mem.NoTID
			pr.anon = 0
			pr.collect(blkP, anonMeta)
			pr.collect(blkP, metastate.Zero)
		}},
		{"probeResult.collect/writer", func() {
			pr.readers = pr.readers[:0]
			pr.writer = mem.NoTID
			pr.anon = 0
			pr.collect(blkW, metastate.WriteT(thsP[1].TID))
			pr.collect(blkW, metastate.WriteT(thsP[1].TID))
		}},
		{"TokenTM.probe", func() {
			if p := tokP.probe(blkP); p.sum != 3 {
				t.Fatalf("want 3 reader tokens, got %d", p.sum)
			}
		}},
		{"TokenTM.probe/writer", func() {
			if p := tokP.probe(blkW); p.sum != metastate.T || p.writer != thsP[1].TID {
				t.Fatalf("want (T, X%d), got (%d, X%d)", thsP[1].TID, p.sum, p.writer)
			}
		}},
		{"TokenTM.enemiesOf", func() {
			if es := tokP.enemiesOf(enemyTIDs, thsP[0].TID); len(es) != 2 {
				t.Fatalf("want 2 enemies, got %d", len(es))
			}
		}},
		{"TokenTM.enemiesOf1", func() {
			if es := tokP.enemiesOf1(thsP[1].TID, thsP[0].TID); len(es) != 1 {
				t.Fatalf("want 1 enemy, got %d", len(es))
			}
		}},
		{"TokenTM.hardCaseLookup", func() {
			es, _ := tokP.hardCaseLookup(blkP, thsP[0].TID)
			if len(es) != 3 {
				t.Fatalf("want 3 enemies, got %d", len(es))
			}
		}},
		{"TokenTM.Commit", func() {
			smallXact(tokF, thF, xF)
			if _, fast := tokF.Commit(thF); !fast {
				t.Fatal("expected fast commit")
			}
			thF.Xact = nil
		}},
		{"TokenTM.softwareRelease", func() {
			smallXact(tokS, thS, xS)
			if _, fast := tokS.Commit(thS); fast {
				t.Fatal("expected software commit")
			}
			thS.Xact = nil
		}},
		{"TokenTM.softwareRelease/evicted", func() {
			evictedXact()
			if tokS.HomeMeta(benchHeap.Block()).IsZero() {
				t.Fatal("the evicted line's token did not go home")
			}
			tokS.Commit(thS)
			thS.Xact = nil
			if !tokS.HomeMeta(benchHeap.Block()).IsZero() {
				t.Fatal("release left the token at home")
			}
		}},
		{"TokenTM.releaseBlock", func() {
			benchBegin(tokS, thS, xS)
			if _, acc := tokS.Load(thS, benchHeap, 0); acc.Outcome != htm.OK {
				t.Fatal("load conflicted")
			}
			tokS.releaseBlock(thS, benchHeap.Block(), 1)
			thS.Log.Reset()
			xS.Tokens.Reset()
			xS.Active = false
			thS.Xact = nil
		}},
		{"TokenTM.Abort", func() {
			benchBegin(tokS, thS, xS)
			for j := 0; j < benchWriteBlocks; j++ {
				a := benchHeap + mem.Addr(j*mem.BlockBytes)
				if acc := tokS.Store(thS, a, 1, 0); acc.Outcome != htm.OK {
					t.Fatal("store conflicted")
				}
			}
			tokS.Abort(thS)
			thS.Xact = nil
		}},
	}

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			// Extra warm-up beyond AllocsPerRun's own: first iterations pay
			// one-time costs (map buckets, scratch capacity, log storage).
			for i := 0; i < 3; i++ {
				e.fn()
			}
			if n := testing.AllocsPerRun(100, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
		})
	}
}
