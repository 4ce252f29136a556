package htm

import (
	"testing"

	"tokentm/internal/mem"
)

func xact(tid mem.TID, ts mem.Cycle) *Xact {
	x := &Xact{TID: tid, Timestamp: ts}
	x.Reset()
	return x
}

func TestXactReset(t *testing.T) {
	x := xact(1, 10)
	x.AbortRequested = true
	x.Stalling = true
	x.FastOK = false
	x.Tokens.Add(5, 3)
	x.ReadSet[5] = struct{}{}
	x.WriteSet[6] = struct{}{}
	x.LogStall = 99

	x.Reset()
	if x.AbortRequested || x.Stalling || !x.FastOK || !x.Active {
		t.Fatal("flags not reset")
	}
	if x.Tokens.Len() != 0 || len(x.ReadSet) != 0 || len(x.WriteSet) != 0 || x.LogStall != 0 {
		t.Fatal("state not reset")
	}
	if x.Timestamp != 10 {
		t.Fatal("Reset must preserve the priority timestamp")
	}
}

func TestOlder(t *testing.T) {
	a, b := xact(1, 10), xact(2, 20)
	if !a.Older(b) || b.Older(a) {
		t.Fatal("timestamp ordering")
	}
	// Tie broken by TID.
	c, d := xact(3, 10), xact(4, 10)
	if !c.Older(d) || d.Older(c) {
		t.Fatal("tie break by TID")
	}
}

func TestResolveTimestampNonTransactional(t *testing.T) {
	// Non-transactional requesters always stall and abort no one.
	enemy := xact(1, 5)
	abort, dec := resolveTimestamp(nil, []*Xact{enemy}, 100, 8)
	if dec != DecideStall || len(abort) != 0 {
		t.Fatalf("nonxact: %v %v", dec, abort)
	}
}

func TestResolveTimestampRunningYoungHolder(t *testing.T) {
	// Older requester vs a running (non-stalled) younger holder: stall,
	// no aborts (the holder will finish).
	old := xact(1, 5)
	young := xact(2, 50)
	abort, dec := resolveTimestamp(old, []*Xact{young}, 0, 8)
	if dec != DecideStall || len(abort) != 0 {
		t.Fatalf("running young holder: %v %v", dec, abort)
	}
}

func TestResolveTimestampDeadlockRule(t *testing.T) {
	// A stalled younger holder wanted by an older requester closes a
	// potential cycle: abort it.
	old := xact(1, 5)
	young := xact(2, 50)
	young.Stalling = true
	abort, dec := resolveTimestamp(old, []*Xact{young}, 0, 8)
	if dec != DecideStall || len(abort) != 1 || abort[0] != young {
		t.Fatalf("deadlock rule: %v %v", dec, abort)
	}
}

func TestResolveTimestampBackstopOlderRequester(t *testing.T) {
	// Past the retry limit an older requester forces even running young
	// holders out.
	old := xact(1, 5)
	young := xact(2, 50)
	abort, dec := resolveTimestamp(old, []*Xact{young}, 8, 8)
	if dec != DecideStall || len(abort) != 1 {
		t.Fatalf("backstop: %v %v", dec, abort)
	}
}

func TestResolveTimestampYoungRequester(t *testing.T) {
	young := xact(2, 50)
	old := xact(1, 5)
	// Young requester stalls on an older holder...
	abort, dec := resolveTimestamp(young, []*Xact{old}, 0, 8)
	if dec != DecideStall || len(abort) != 0 {
		t.Fatalf("young stalls: %v %v", dec, abort)
	}
	// ...and sacrifices itself at the backstop.
	_, dec = resolveTimestamp(young, []*Xact{old}, 8, 8)
	if dec != DecideAbortSelf {
		t.Fatalf("young backstop: %v", dec)
	}
}

func TestResolveTimestampMixedEnemies(t *testing.T) {
	req := xact(2, 20)
	older := xact(1, 5)
	youngerStalled := xact(3, 90)
	youngerStalled.Stalling = true
	abort, dec := resolveTimestamp(req, []*Xact{older, youngerStalled}, 0, 8)
	if dec != DecideStall {
		t.Fatalf("mixed: %v", dec)
	}
	if len(abort) != 1 || abort[0] != youngerStalled {
		t.Fatalf("mixed aborts: %v", abort)
	}
	// Past the limit, the requester (younger than one enemy) gives up.
	_, dec = resolveTimestamp(req, []*Xact{older, youngerStalled}, 9, 8)
	if dec != DecideAbortSelf {
		t.Fatalf("mixed backstop: %v", dec)
	}
}

func TestThreadInXact(t *testing.T) {
	th := &Thread{}
	if th.InXact() {
		t.Fatal("no xact")
	}
	th.Xact = xact(1, 1)
	if !th.InXact() {
		t.Fatal("active xact")
	}
	th.Xact.Active = false
	if th.InXact() {
		t.Fatal("inactive xact")
	}
}

func TestCommitRecordBytesAccounting(t *testing.T) {
	// Spot-check the cost constants stay sane (used across variants).
	if BeginCycles == 0 || FastCommitCycles == 0 || conflictTrapCycles == 0 {
		t.Fatal("zero cost constants")
	}
	if logWriteOverlap == 0 {
		t.Fatal("log write overlap must be nonzero (divide-by-zero)")
	}
}
