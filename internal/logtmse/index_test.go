package logtmse

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
	"tokentm/internal/tmlog"
)

// refConflict is the reference conflict check: a walk, in TID order, over
// every other in-flight transaction's exact read and write sets. It returns
// the exact holders of b that conflict with the request and whether any of
// them holds b in its write set.
func refConflict(threads []*htm.Thread, self mem.TID, b mem.BlockAddr, isWrite bool) (exact []*htm.Xact, writer bool) {
	for _, th := range threads {
		if th.TID == self || !th.InXact() {
			continue
		}
		_, inW := th.Xact.WriteSet[b]
		_, inR := th.Xact.ReadSet[b]
		if inW || (isWrite && inR) {
			exact = append(exact, th.Xact)
		}
		writer = writer || inW
	}
	return exact, writer
}

// refKind classifies a conflict the way checkConflict documents.
func refKind(self mem.TID, isWrite, writerHit bool) htm.ConflictKind {
	switch {
	case self == mem.NoTID:
		return htm.KindNonXact
	case !isWrite:
		return htm.KindReadVsWriter
	case writerHit:
		return htm.KindWriteVsWriter
	default:
		return htm.KindWriteVsReaders
	}
}

// TestConflictCheckMatchesExactSets drives seeded random Begin / Load /
// Store / Commit / Abort streams, transactional and not, and checks every
// access's (enemies, kind, falsePositive) against refConflict. Perf must
// match it exactly. A Bloom variant's enemies must contain every exact
// holder, in TID order, and be flagged false exactly when none is exact.
// After every step, a thread outside a transaction must hold nothing, and
// Perf's holder bits for each block must equal the in-flight exact sets.
// 70 threads need two words per holder bitset; half of them register in
// the middle of the stream, shuffled, so bits are renumbered while held.
func TestConflictCheckMatchesExactSets(t *testing.T) {
	for _, kind := range []sig.Kind{sig.KindPerfect, sig.Kind2xH3, sig.Kind4xH3} {
		for _, n := range []int{4, 32, 70} {
			t.Run(fmt.Sprintf("%v/%d", kind, n), func(t *testing.T) {
				checkConflictStream(t, kind, n, int64(n)*31+int64(kind))
			})
		}
	}
}

func checkConflictStream(t *testing.T, kind sig.Kind, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	se := New(coherence.NewMemSys(4), mem.NewStore(), kind, 8)
	all := make([]*htm.Thread, n)
	for i := range all {
		all[i] = &htm.Thread{
			ID:   i,
			TID:  mem.TID(i + 1),
			Core: i % 4,
			Log:  tmlog.New(mem.Addr(1<<40) + mem.Addr(i)<<24),
		}
	}
	order := rng.Perm(n)
	var threads []*htm.Thread // registered, sorted by TID
	register := func(ids []int) {
		for _, i := range ids {
			se.Register(all[i])
			threads = append(threads, all[i])
		}
		slices.SortFunc(threads, func(a, b *htm.Thread) int { return int(a.TID) - int(b.TID) })
	}
	register(order[:n/2])

	// A small pool of blocks, so sets overlap and conflicts are common.
	pool := make([]mem.BlockAddr, 48)
	for i := range pool {
		pool[i] = mem.Addr(0x100000 + i*7*mem.BlockBytes).Block()
	}
	var ts mem.Cycle
	end := func(th *htm.Thread, commit bool) {
		if commit {
			se.Commit(th)
		} else {
			se.Abort(th)
		}
		th.Xact = nil
	}
	const steps = 6000
	for step := 0; step < steps; step++ {
		if step == steps/4 {
			register(order[n/2:])
		}
		th := threads[rng.Intn(len(threads))]
		if x := th.Xact; x != nil && x.AbortRequested {
			end(th, false)
			continue
		}
		switch op := rng.Intn(10); {
		case th.Xact == nil && op < 6:
			ts++
			x := &htm.Xact{TID: th.TID, Core: th.Core, Timestamp: ts}
			x.Reset()
			x.Attempts = 1
			th.Xact = x
			se.Begin(th, ts)
		case th.Xact != nil && op == 0:
			end(th, true)
		case th.Xact != nil && op == 1:
			end(th, false)
		default:
			b := pool[rng.Intn(len(pool))]
			isWrite := rng.Intn(3) == 0
			self := mem.NoTID
			if th.Xact != nil {
				self = th.TID
			}
			checkAccess(t, se, threads, self, b, isWrite, step)
			var acc htm.Access
			if isWrite {
				acc = se.Store(th, b.Addr(), uint64(step), 0)
			} else {
				_, acc = se.Load(th, b.Addr(), 0)
			}
			if acc.Outcome != htm.OK && th.Xact != nil {
				end(th, false)
			}
		}
		checkHeld(t, se, threads, pool, step)
	}
	if se.Metrics.Conflicts == 0 {
		t.Fatal("the stream never conflicted")
	}
}

// checkAccess compares one access's checkConflict against refConflict.
func checkAccess(t *testing.T, se *LogTMSE, threads []*htm.Thread, self mem.TID, b mem.BlockAddr, isWrite bool, step int) {
	t.Helper()
	enemies, kind, falsePos := se.checkConflict(self, b, isWrite)
	exact, writer := refConflict(threads, self, b, isWrite)
	where := fmt.Sprintf("step %d: self %d, block %#x, write %v", step, self, b, isWrite)
	if se.kind == sig.KindPerfect {
		wantKind := htm.KindNone
		if len(exact) > 0 {
			wantKind = refKind(self, isWrite, writer)
		}
		if !slices.Equal(enemies, exact) || kind != wantKind || falsePos {
			t.Fatalf("%s: got (%v, %v, %v), want (%v, %v, false)", where, tids(enemies), kind, falsePos, tids(exact), wantKind)
		}
		return
	}
	for _, x := range exact {
		if !slices.Contains(enemies, x) {
			t.Fatalf("%s: exact holder %d missing from enemies %v", where, x.TID, tids(enemies))
		}
	}
	if !slices.IsSortedFunc(enemies, func(a, b *htm.Xact) int { return int(a.TID) - int(b.TID) }) {
		t.Fatalf("%s: enemies %v not in TID order", where, tids(enemies))
	}
	if want := len(enemies) > 0 && len(exact) == 0; falsePos != want {
		t.Fatalf("%s: falsePositive %v, want %v (enemies %v, exact %v)", where, falsePos, want, tids(enemies), tids(exact))
	}
	switch {
	case len(enemies) == 0:
		if kind != htm.KindNone {
			t.Fatalf("%s: kind %v without enemies", where, kind)
		}
	case self == mem.NoTID || !isWrite || writer:
		// An exact writer, or a kind that depends on the request alone.
		if want := refKind(self, isWrite, true); kind != want {
			t.Fatalf("%s: kind %v, want %v", where, kind, want)
		}
	case kind != htm.KindWriteVsWriter && kind != htm.KindWriteVsReaders:
		t.Fatalf("%s: kind %v for a transactional write", where, kind)
	}
}

// checkHeld checks the sets each registered thread holds: nothing outside a
// transaction, and for Perf, holder bits equal to the exact sets.
func checkHeld(t *testing.T, se *LogTMSE, threads []*htm.Thread, pool []mem.BlockAddr, step int) {
	t.Helper()
	for p, th := range threads {
		st := se.state[th.TID]
		if !th.InXact() {
			if r, w := se.SigOccupancy(th.TID); r != 0 || w != 0 || len(st.readHeld) != 0 || len(st.writeHeld) != 0 {
				t.Fatalf("step %d: thread %d holds sets outside a transaction", step, th.TID)
			}
		}
		if se.holders == nil {
			continue
		}
		if st.bit != p {
			t.Fatalf("step %d: thread %d has bit %d, want %d", step, th.TID, st.bit, p)
		}
		for _, b := range pool {
			read, write, ok := se.holders.lookup(b)
			var inR, inW bool
			if th.Xact != nil {
				_, inR = th.Xact.ReadSet[b]
				_, inW = th.Xact.WriteSet[b]
			}
			m := uint64(1) << (p % 64)
			if ok && (read[p/64]&m != 0) != inR || ok && (write[p/64]&m != 0) != inW || !ok && (inR || inW) {
				t.Fatalf("step %d: block %#x holder bits for thread %d disagree with its exact sets (read %v, write %v)", step, b, th.TID, inR, inW)
			}
		}
	}
}

func tids(xs []*htm.Xact) []mem.TID {
	out := make([]mem.TID, len(xs))
	for i, x := range xs {
		out[i] = x.TID
	}
	return out
}
