// Package logtmse implements the paper's baseline unbounded HTM, LogTM-SE
// (Yen et al., HPCA 2007): eager version management through per-thread logs
// (htm.Eager, shared with TokenTM) and conflict detection through
// read/write-set signatures. The three variants evaluated — Perf
// (unimplementable exact signatures), 2xH3 and 4xH3 (2 Kbit Bloom filters
// with 2 or 4 parallel H3 hashes) — differ only in the signature
// implementation, so signature false positives are the sole source of
// performance difference (Figure 1).
//
// Perf's exact signatures are modeled by one exact per-block holder index
// (holders.go), so its conflict check is one lookup. Only the Bloom
// variants walk every other thread's signatures, since a false positive
// shows only by testing each thread's filter.
package logtmse

import (
	"fmt"
	"math/bits"
	"sort"

	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
)

// LogTMSE is the signature-based HTM system.
type LogTMSE struct {
	htm.Eager
	kind sig.Kind

	// threads holds registered threads sorted by TID: the Bloom variants'
	// checkConflict walks it per access, and a thread's index in it is its
	// bit in the holder index.
	threads []*threadState
	state   map[mem.TID]*threadState
	// holders is Perf's exact holder index; nil for the Bloom variants.
	holders *holderIndex
}

// threadState is one thread's conflict-detection state: its read and write
// signatures (Bloom variants), or its bit in the holder index and the
// entries it has set there (Perf).
type threadState struct {
	th          *htm.Thread
	read, write *sig.Bloom

	bit                 int
	readHeld, writeHeld []int32
}

var _ htm.System = (*LogTMSE)(nil)

// New builds a LogTM-SE system with the given signature kind.
func New(ms *coherence.MemSys, store *mem.Store, kind sig.Kind, retryLimit int) *LogTMSE {
	s := &LogTMSE{
		Eager: htm.Eager{Variant: "LogTM-SE_" + kind.String(), RetryLimit: retryLimit, Mem: ms, Values: store},
		kind:  kind,
		state: make(map[mem.TID]*threadState),
	}
	if kind == sig.KindPerfect {
		s.holders = newHolderIndex()
	}
	return s
}

// Register introduces a thread and builds its signatures; per-thread seeds
// decorrelate the H3 hash functions across cores as in hardware, where each
// core's XOR trees are wired from different random matrices. The thread list
// stays sorted by TID so conflict checks find foreign threads in a fixed
// order regardless of registration order or map layout.
func (s *LogTMSE) Register(th *htm.Thread) {
	st := &threadState{th: th}
	if s.holders == nil {
		st.read = sig.New(s.kind, int64(th.TID)*7919+1)
		st.write = sig.New(s.kind, int64(th.TID)*104729+2)
	}
	i := sort.Search(len(s.threads), func(i int) bool { return s.threads[i].th.TID >= th.TID })
	if i < len(s.threads) && s.threads[i].th.TID == th.TID {
		s.clearSets(s.threads[i])
		s.threads[i] = st
	} else {
		s.threads = append(s.threads, nil)
		copy(s.threads[i+1:], s.threads[i:])
		s.threads[i] = st
	}
	s.state[th.TID] = st
	if s.holders != nil {
		s.holders.renumber(s.threads)
	}
}

// RunningOn is a no-op: signatures are per-thread state and virtualize
// trivially across context switches (the point of LogTM-SE's design).
func (s *LogTMSE) RunningOn(core int, th *htm.Thread) {}

// Begin clears the thread's signatures.
func (s *LogTMSE) Begin(th *htm.Thread, now mem.Cycle) mem.Cycle {
	s.clearSets(s.state[th.TID])
	return htm.BeginCycles
}

// clearSets empties st's read and write sets: its signatures, or its bits
// in the holder index.
func (s *LogTMSE) clearSets(st *threadState) {
	if s.holders != nil {
		s.holders.clear(st)
		return
	}
	st.read.Clear()
	st.write.Clear()
}

// addToSet records that st's write set (or read set) now holds b.
func (s *LogTMSE) addToSet(st *threadState, b mem.BlockAddr, write bool) {
	switch {
	case s.holders != nil:
		s.holders.add(st, b, write)
	case write:
		st.write.Add(b)
	default:
		st.read.Add(b)
	}
}

// checkConflict tests b against every other in-flight transaction's read and
// write sets: write requests conflict with foreign read or write sets, read
// requests with foreign write sets. It returns the identified enemies, the
// conflict's kind (KindNone when there are no enemies) and whether the
// conflict is a pure signature false positive. Enemies are listed in TID
// order so the enemy list is deterministic.
func (s *LogTMSE) checkConflict(self mem.TID, b mem.BlockAddr, isWrite bool) (enemies []*htm.Xact, kind htm.ConflictKind, falsePositive bool) {
	var writerHit, real bool
	if s.holders != nil {
		enemies, writerHit = s.exactHolders(self, b, isWrite)
		real = true
	} else {
		enemies, writerHit, real = s.signatureHits(self, b, isWrite)
	}
	switch {
	case len(enemies) == 0:
		kind = htm.KindNone
	case self == mem.NoTID:
		kind = htm.KindNonXact
	case !isWrite:
		kind = htm.KindReadVsWriter
	case writerHit:
		kind = htm.KindWriteVsWriter
	default:
		kind = htm.KindWriteVsReaders
	}
	return enemies, kind, len(enemies) > 0 && !real
}

// exactHolders is Perf's check: one holder-index lookup, whose set bits,
// walked upward, are the holders in TID order. writerHit reports whether an
// enemy holds b in its write set.
func (s *LogTMSE) exactHolders(self mem.TID, b mem.BlockAddr, isWrite bool) (enemies []*htm.Xact, writerHit bool) {
	read, write, ok := s.holders.lookup(b)
	if !ok {
		return nil, false
	}
	for k, w := range write {
		m := w
		if isWrite {
			m |= read[k]
		}
		for ; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			th := s.threads[k*64+j].th
			if th.TID == self || !th.InXact() {
				continue
			}
			enemies = append(enemies, th.Xact)
			if w&(1<<j) != 0 {
				writerHit = true
			}
		}
	}
	return enemies, writerHit
}

// signatureHits is the Bloom variants' check: it tests b against every
// other in-flight thread's signatures in TID order. real reports whether
// some hit is in the enemy's exact sets, i.e. not only an alias.
func (s *LogTMSE) signatureHits(self mem.TID, b mem.BlockAddr, isWrite bool) (enemies []*htm.Xact, writerHit, real bool) {
	for _, st := range s.threads {
		th := st.th
		if th.TID == self || !th.InXact() {
			continue
		}
		hit := st.write.Test(b)
		if hit {
			writerHit = true
		}
		if !hit && isWrite {
			hit = st.read.Test(b)
		}
		if !hit {
			continue
		}
		enemies = append(enemies, th.Xact)
		_, inW := th.Xact.WriteSet[b]
		_, inR := th.Xact.ReadSet[b]
		if inW || (isWrite && inR) {
			real = true
		}
	}
	return enemies, writerHit, real
}

// Load performs a read with eager conflict detection against foreign write
// signatures (strong atomicity applies to non-transactional reads too).
func (s *LogTMSE) Load(th *htm.Thread, addr mem.Addr, retries int) (uint64, htm.Access) {
	b := addr.Block()
	x := th.Xact
	if x != nil && x.AbortRequested {
		return 0, htm.Access{Outcome: htm.AbortSelf}
	}
	self := mem.NoTID
	if x != nil {
		self = x.TID
		if _, ok := x.ReadSet[b]; ok {
			// Already in our read set: eager detection means any
			// conflicting writer found us when it accessed the block.
			lat := s.Mem.Access(th.Core, b, false)
			return s.Values.Load(addr), htm.Access{Latency: lat}
		}
	}
	if enemies, kind, falsePos := s.checkConflict(self, b, false); len(enemies) > 0 {
		return 0, s.Trap(x, b, enemies, retries, 0, kind, falsePos)
	}
	lat := s.Mem.Access(th.Core, b, false)
	if x != nil {
		s.addToSet(s.state[x.TID], b, false)
		x.ReadSet[b] = struct{}{}
	}
	return s.Values.Load(addr), htm.Access{Latency: lat}
}

// Store performs a write with eager conflict detection against foreign read
// and write signatures.
func (s *LogTMSE) Store(th *htm.Thread, addr mem.Addr, val uint64, retries int) htm.Access {
	b := addr.Block()
	x := th.Xact
	if x != nil && x.AbortRequested {
		return htm.Access{Outcome: htm.AbortSelf}
	}
	self := mem.NoTID
	if x != nil {
		self = x.TID
		if _, ok := x.WriteSet[b]; ok {
			lat := s.Mem.Access(th.Core, b, true)
			s.Values.StoreWord(addr, val)
			return htm.Access{Latency: lat}
		}
	}
	if enemies, kind, falsePos := s.checkConflict(self, b, true); len(enemies) > 0 {
		return s.Trap(x, b, enemies, retries, 0, kind, falsePos)
	}
	lat := s.Mem.Access(th.Core, b, true)
	if x != nil {
		s.addToSet(s.state[x.TID], b, true)
		lat += s.LogData(th, b, 0)
	}
	s.Values.StoreWord(addr, val)
	return htm.Access{Latency: lat}
}

// Commit is always constant time in LogTM-SE: clear the signatures and
// reset the log pointer.
func (s *LogTMSE) Commit(th *htm.Thread) (mem.Cycle, bool) {
	s.clearSets(s.state[th.TID])
	th.Log.Reset()
	th.Xact.Active = false
	return htm.FastCommitCycles, true
}

// Abort unrolls the log in reverse, restoring pre-transaction values, and
// clears the signatures.
func (s *LogTMSE) Abort(th *htm.Thread) mem.Cycle {
	lat := s.Unroll(th)
	s.clearSets(s.state[th.TID])
	th.Xact.Active = false
	s.Metrics.Aborts++
	return lat
}

// ContextSwitch is cheap for LogTM-SE: signatures are per-thread software-
// visible state (that is the design's virtualization story).
func (s *LogTMSE) ContextSwitch(core int, out, in *htm.Thread) mem.Cycle {
	return htm.CtxSwitchCycles
}

// SigOccupancy reports a thread's current signature occupancy (diagnostics);
// Perf's exact sets never saturate and report 0.
func (s *LogTMSE) SigOccupancy(tid mem.TID) (read, write float64) {
	st, ok := s.state[tid]
	if !ok || st.read == nil {
		return 0, 0
	}
	return st.read.Occupancy(), st.write.Occupancy()
}

func (s *LogTMSE) String() string { return fmt.Sprintf("%s(retry=%d)", s.Variant, s.RetryLimit) }
