package core

import (
	"strings"
	"testing"

	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// TestOverflowPagingIntegration: a LimitLESS-overflowed reader count (more
// debits than the 14-bit Attr field holds) survives a page-out/page-in
// cycle through the software overflow table.
func TestOverflowPagingIntegration(t *testing.T) {
	r := newRig(t, 1)
	r.thread(0)
	b := mem.Addr(0x30000).Block()
	big := metastate.Anon(20000) // > 2^14-1
	r.tok.setHome(b, big)

	sp := r.tok.PageOut(mem.Addr(0x30000).Page())
	if len(sp.Metas) != 1 {
		t.Fatalf("saved metas: %d", len(sp.Metas))
	}
	if !sp.Metas[b].IsOverflow() {
		t.Fatal("large count must use the overflow encoding")
	}
	if sp.OverflowCounts[b] != 20000 {
		t.Fatalf("overflow count: %d", sp.OverflowCounts[b])
	}
	if err := r.tok.PageIn(sp); err != nil {
		t.Fatal(err)
	}
	if got := r.tok.HomeMeta(b); got != big {
		t.Fatalf("restored metastate: %v", got)
	}
	// Clean up the injected state so bookkeeping stays consistent.
	r.tok.setHome(b, metastate.Zero)
	r.check()
}

// TestNameVariants checks option plumbing.
func TestNameVariants(t *testing.T) {
	r := newRig(t, 1)
	if r.tok.Name() != "TokenTM" {
		t.Fatal(r.tok.Name())
	}
	r2 := newRig(t, 1, WithoutFastRelease())
	if r2.tok.Name() != "TokenTM_NoFast" {
		t.Fatal(r2.tok.Name())
	}
	if r.tok.Stats() == nil {
		t.Fatal("stats")
	}
}

// TestReleasePostSwitchRPlusPool: after context switches fold tokens into a
// line's anonymous R+ count, releases drain the pool greedily and conserve
// tokens.
func TestReleasePostSwitchRPlusPool(t *testing.T) {
	r := newRig(t, 1)
	a := r.thread(0)
	b := r.thread(0) // same core

	// a reads blkA; switch; b reads blkA (rule (ii): a's token folds into
	// the R+ pool, b's R bit set).
	r.begin(a, 1)
	r.load(a, blkA)
	r.tok.ContextSwitch(0, a, b)
	r.begin(b, 2)
	if _, acc := r.load(b, blkA); acc.Outcome != 0 {
		t.Fatalf("b read: %+v", acc)
	}
	line := r.ms.LineAt(0, blkA.Block())
	if line == nil || !line.Meta.RPlus || !line.Meta.R {
		t.Fatalf("rule (ii) state: %v", line)
	}
	r.check()

	// b commits (its R bit releases; a's token stays in the pool).
	r.commit(b)
	r.check()
	if got := r.tok.probe(blkA.Block()); got.sum != 1 {
		t.Fatalf("after b's commit: %d tokens", got.sum)
	}

	// Switch back to a; its commit must drain the anonymous pool.
	r.tok.ContextSwitch(0, b, a)
	r.commit(a)
	r.check()
	if got := r.tok.probe(blkA.Block()); got.sum != 0 {
		t.Fatalf("leaked tokens: %d", got.sum)
	}
}

// TestReleaseRPrimeUnderRPlus: an R' bit under R+ is an anonymous token.
// Two readers share a line as an anonymous pair; a context switch turns the
// running reader's R into R'. Releasing the other reader first must leave
// the R' token anonymous (R+ kept), so the owner's release finds it and the
// line ends empty instead of as a token owned by TID 0.
func TestReleaseRPrimeUnderRPlus(t *testing.T) {
	r := newRig(t, 1)
	a := r.thread(0)
	b := r.thread(0) // same core

	r.begin(a, 1)
	if _, acc := r.load(a, blkA); acc.Outcome != htm.OK {
		t.Fatalf("a read: %+v", acc)
	}
	r.tok.ContextSwitch(0, a, b)
	r.begin(b, 2)
	if _, acc := r.load(b, blkA); acc.Outcome != htm.OK { // rule (ii): {R R+ attr=1}
		t.Fatalf("b read: %+v", acc)
	}
	r.tok.ContextSwitch(0, b, a) // b's R becomes R': {R' R+ attr=1}
	line := r.ms.LineAt(0, blkA.Block())
	if line == nil || !line.Meta.Rp || !line.Meta.RPlus || line.Meta.Attr != 1 {
		t.Fatalf("post-switch state: %v", line)
	}
	r.check()

	r.commit(a) // the other reader releases first
	r.check()
	r.tok.ContextSwitch(0, a, b)
	r.commit(b) // then the owner of the R' token
	r.check()
	if line := r.ms.LineAt(0, blkA.Block()); line == nil || line.Meta != metastate.L1Zero {
		t.Fatalf("line ends as %v, want %v", line, metastate.L1Zero)
	}
}

// TestHardCaseCounter: the §5.2 log-walk path is counted.
func TestHardCaseCounter(t *testing.T) {
	r := newRig(t, 2)
	reader := r.thread(0)
	writer := r.thread(1)
	r.begin(reader, 1)
	r.load(reader, blkA)
	// Anonymize the reader's token: evict, then evict again after
	// re-acquire to fuse two tokens into an anonymous (2,-).
	r.ms.EvictAll(blkA.Block())
	r.load(reader, blkA)
	r.ms.EvictAll(blkA.Block())
	if got := r.tok.HomeMeta(blkA.Block()); got != metastate.Anon(2) {
		t.Fatalf("home: %v", got)
	}
	r.begin(writer, 2)
	acc := r.store(writer, blkA, 1)
	if acc.Outcome == 0 {
		t.Fatal("write vs anonymous readers must conflict")
	}
	if r.tok.Metrics.HardCaseLookups == 0 {
		t.Fatal("anonymous readers must trigger the log-walk hard case")
	}
	if len(acc.Enemies) != 1 || acc.Enemies[0].TID != reader.TID {
		t.Fatalf("log walk must identify the reader: %+v", acc.Enemies)
	}
	r.commit(reader)
	r.mustOK(r.store(writer, blkA, 1))
	r.commit(writer)
	r.check()
}

// TestCheckBookkeepingDetectsViolations: the checker actually fails on
// corrupted state.
func TestCheckBookkeepingDetectsViolations(t *testing.T) {
	r := newRig(t, 1)
	x := r.thread(0)
	r.begin(x, 1)
	r.load(x, blkA)

	// Corrupt: inflate home debits without any log credit.
	r.tok.setHome(blkB.Block(), metastate.Anon(3))
	err := r.tok.CheckBookkeeping()
	if err == nil || !strings.Contains(err.Error(), "debits") {
		t.Fatalf("checker missed the violation: %v", err)
	}
	r.tok.setHome(blkB.Block(), metastate.Zero)
	r.check()
	r.commit(x)
}

// TestNonXactLoadFastPaths: resident non-transactional loads take the local
// fast path and never consult the global state.
func TestNonXactLoadFastPaths(t *testing.T) {
	r := newRig(t, 2)
	a := r.thread(0)
	// Warm a resident copy.
	if _, acc := r.load(a, blkA); acc.Outcome != 0 {
		t.Fatal("warm")
	}
	// Resident re-read is an L1 hit.
	if _, acc := r.load(a, blkA); acc.Outcome != 0 || acc.Latency != 1 {
		t.Fatalf("resident nonxact load: %+v", acc)
	}
	// Resident nonxact store on an M/E line with clean metabits.
	if acc := r.store(a, blkA, 9); acc.Outcome != 0 {
		t.Fatalf("nonxact store: %+v", acc)
	}
	if acc := r.store(a, blkA, 10); acc.Outcome != 0 || acc.Latency != 1 {
		t.Fatalf("resident nonxact store: %+v", acc)
	}
}
