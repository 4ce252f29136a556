// Package logtmse implements the paper's baseline unbounded HTM, LogTM-SE
// (Yen et al., HPCA 2007): eager version management through per-thread logs
// (shared with TokenTM) and conflict detection through read/write-set
// signatures. The three variants evaluated — Perf (unimplementable exact
// signatures), 2xH3 and 4xH3 (2 Kbit Bloom filters with 2 or 4 parallel H3
// hashes) — differ only in the signature implementation, so signature false
// positives are the sole source of performance difference (Figure 1).
package logtmse

import (
	"fmt"
	"sort"

	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/sig"
	"tokentm/internal/tmlog"
)

// LogTMSE is the signature-based HTM system.
type LogTMSE struct {
	name       string
	kind       sig.Kind
	retryLimit int

	ms    *coherence.MemSys
	store *mem.Store

	// threads holds registered threads sorted by TID, each with its
	// signatures alongside: checkConflict walks this per access, and a map
	// lookup per foreign thread was measurable.
	threads []threadEntry
	sigs    map[mem.TID]*threadSigs

	// Metrics aggregates evaluation counters.
	Metrics htm.Metrics
}

type threadSigs struct {
	read  sig.Signature
	write sig.Signature
}

type threadEntry struct {
	th *htm.Thread
	sg *threadSigs
}

var _ htm.System = (*LogTMSE)(nil)

// New builds a LogTM-SE system with the given signature kind.
func New(ms *coherence.MemSys, store *mem.Store, kind sig.Kind, retryLimit int) *LogTMSE {
	return &LogTMSE{
		name:       "LogTM-SE_" + kind.String(),
		kind:       kind,
		retryLimit: retryLimit,
		ms:         ms,
		store:      store,
		sigs:       make(map[mem.TID]*threadSigs),
	}
}

// Name returns the variant name (e.g. "LogTM-SE_4xH3").
func (s *LogTMSE) Name() string { return s.name }

// Stats exposes the variant's metrics.
func (s *LogTMSE) Stats() *htm.Metrics { return &s.Metrics }

// Register introduces a thread and builds its signatures; per-thread seeds
// decorrelate the H3 hash functions across cores as in hardware, where each
// core's XOR trees are wired from different random matrices. The thread list
// stays sorted by TID so conflict checks walk foreign signatures in a fixed
// order regardless of registration order or map layout.
func (s *LogTMSE) Register(th *htm.Thread) {
	sg := &threadSigs{
		read:  sig.New(s.kind, int64(th.TID)*7919+1),
		write: sig.New(s.kind, int64(th.TID)*104729+2),
	}
	e := threadEntry{th: th, sg: sg}
	i := sort.Search(len(s.threads), func(i int) bool { return s.threads[i].th.TID >= th.TID })
	if i < len(s.threads) && s.threads[i].th.TID == th.TID {
		s.threads[i] = e
	} else {
		s.threads = append(s.threads, threadEntry{})
		copy(s.threads[i+1:], s.threads[i:])
		s.threads[i] = e
	}
	s.sigs[th.TID] = sg
}

// RunningOn is a no-op: signatures are per-thread state and virtualize
// trivially across context switches (the point of LogTM-SE's design).
func (s *LogTMSE) RunningOn(core int, th *htm.Thread) {}

// Begin clears the thread's signatures.
func (s *LogTMSE) Begin(th *htm.Thread, now mem.Cycle) mem.Cycle {
	sg := s.sigs[th.TID]
	sg.read.Clear()
	sg.write.Clear()
	return htm.BeginCycles
}

// checkConflict tests b against every other in-flight transaction's
// signatures: write requests conflict with foreign read or write sets, read
// requests with foreign write sets. It returns the identified enemies, the
// conflict's kind (KindNone when there are no enemies) and whether the
// conflict is a pure signature false positive. Threads are walked in TID
// order so the enemy list is deterministic.
func (s *LogTMSE) checkConflict(self mem.TID, b mem.BlockAddr, isWrite bool) (enemies []*htm.Xact, kind htm.ConflictKind, falsePositive bool) {
	real := false
	writerHit := false
	for _, e := range s.threads {
		th, sg := e.th, e.sg
		if th.TID == self || !th.InXact() {
			continue
		}
		hit := sg.write.Test(b)
		if hit {
			writerHit = true
		}
		if !hit && isWrite {
			hit = sg.read.Test(b)
		}
		if !hit {
			continue
		}
		enemies = append(enemies, th.Xact)
		// Exact sets reveal whether this was an alias.
		_, inW := th.Xact.WriteSet[b]
		_, inR := th.Xact.ReadSet[b]
		if inW || (isWrite && inR) {
			real = true
		}
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

func (s *LogTMSE) conflict(req *htm.Xact, b mem.BlockAddr, enemies []*htm.Xact, retries int, kind htm.ConflictKind, falsePos bool) htm.Access {
	s.Metrics.Conflicts++
	s.Metrics.CountConflict(kind)
	if falsePos {
		s.Metrics.FalseConflicts++
	}
	lat := coherence.L1HitCycles + htm.ConflictTrapCycles
	abort, dec := htm.ResolveTimestamp(req, enemies, retries, s.retryLimit)
	htm.ApplyResolution(req, enemies, abort, dec, b, kind)
	if dec == htm.DecideAbortSelf {
		return htm.Access{Outcome: htm.AbortSelf, Latency: lat, Enemies: enemies, Kind: kind, False: falsePos}
	}
	s.Metrics.Stalls++
	return htm.Access{Outcome: htm.Stall, Latency: lat, Enemies: enemies, Kind: kind, False: falsePos}
}

// logWrite simulates the log append; like TokenTM's, log stores drain
// through the store buffer so the core stalls only for a fraction of the
// raw miss time.
func (s *LogTMSE) logWrite(th *htm.Thread, addr mem.Addr, size int) mem.Cycle {
	var raw mem.Cycle
	first := addr.Block()
	last := (addr + mem.Addr(size) - 1).Block()
	for b := first; b <= last; b++ {
		raw += s.ms.Access(th.Core, b, true)
	}
	lat := coherence.L1HitCycles
	if raw > coherence.L1HitCycles {
		stall := (raw - coherence.L1HitCycles) / htm.LogWriteOverlap
		lat += stall
		if th.InXact() {
			th.Xact.LogStall += stall
		}
	}
	return lat
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
			lat := s.ms.Access(th.Core, b, false)
			return s.store.Load(addr), htm.Access{Latency: lat}
		}
	}
	if enemies, kind, falsePos := s.checkConflict(self, b, false); len(enemies) > 0 {
		return 0, s.conflict(x, b, enemies, retries, kind, falsePos)
	}
	lat := s.ms.Access(th.Core, b, false)
	if x != nil {
		s.sigs[x.TID].read.Add(b)
		x.ReadSet[b] = struct{}{}
	}
	return s.store.Load(addr), htm.Access{Latency: lat}
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
			lat := s.ms.Access(th.Core, b, true)
			s.store.StoreWord(addr, val)
			return htm.Access{Latency: lat}
		}
	}
	if enemies, kind, falsePos := s.checkConflict(self, b, true); len(enemies) > 0 {
		return s.conflict(x, b, enemies, retries, kind, falsePos)
	}
	lat := s.ms.Access(th.Core, b, true)
	if x != nil {
		s.sigs[x.TID].write.Add(b)
		if _, seen := x.WriteSet[b]; !seen {
			old := s.readBlock(b)
			rAddr, rSize := th.Log.AppendData(b, 0, old)
			lat += s.logWrite(th, rAddr, rSize)
			x.WriteSet[b] = struct{}{}
		}
	}
	s.store.StoreWord(addr, val)
	return htm.Access{Latency: lat}
}

func (s *LogTMSE) readBlock(b mem.BlockAddr) (out [mem.WordsPerBlock]uint64) {
	base := b.Addr()
	for i := range out {
		out[i] = s.store.Load(base + mem.Addr(i*mem.WordBytes))
	}
	return out
}

// Commit is always constant time in LogTM-SE: clear the signatures and
// reset the log pointer.
func (s *LogTMSE) Commit(th *htm.Thread) (mem.Cycle, bool) {
	sg := s.sigs[th.TID]
	sg.read.Clear()
	sg.write.Clear()
	th.Log.Reset()
	th.Xact.Active = false
	return htm.FastCommitCycles, true
}

// Abort unrolls the log in reverse, restoring pre-transaction values, and
// clears the signatures.
func (s *LogTMSE) Abort(th *htm.Thread) mem.Cycle {
	x := th.Xact
	core := th.Core
	var lat mem.Cycle
	offset := th.Log.Bytes()
	recs := th.Log.Records()
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		offset -= rec.Bytes()
		lat += htm.AbortRecordCycles
		lat += s.ms.Access(core, (th.Log.Base() + mem.Addr(offset)).Block(), false)
		if rec.Kind == tmlog.DataRecord {
			lat += s.ms.Access(core, rec.Block, true)
			s.writeBlock(rec.Block, rec.Old)
		}
	}
	sg := s.sigs[th.TID]
	sg.read.Clear()
	sg.write.Clear()
	th.Log.Reset()
	x.Active = false
	s.Metrics.Aborts++
	return lat
}

func (s *LogTMSE) writeBlock(b mem.BlockAddr, words [mem.WordsPerBlock]uint64) {
	base := b.Addr()
	for i, w := range words {
		s.store.StoreWord(base+mem.Addr(i*mem.WordBytes), w)
	}
}

// ContextSwitch is cheap for LogTM-SE: signatures are per-thread software-
// visible state (that is the design's virtualization story).
func (s *LogTMSE) ContextSwitch(core int, out, in *htm.Thread) mem.Cycle {
	return htm.CtxSwitchCycles
}

// SigOccupancy reports a thread's current signature occupancy (diagnostics).
func (s *LogTMSE) SigOccupancy(tid mem.TID) (read, write float64) {
	sg, ok := s.sigs[tid]
	if !ok {
		return 0, 0
	}
	return sg.read.Occupancy(), sg.write.Occupancy()
}

func (s *LogTMSE) String() string { return fmt.Sprintf("%s(retry=%d)", s.name, s.retryLimit) }
