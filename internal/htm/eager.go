package htm

import (
	"tokentm/internal/coherence"
	"tokentm/internal/mem"
	"tokentm/internal/tmlog"
)

// Eager is the version management and conflict trap every variant shares:
// stores update memory in place after logging the block's old data to the
// thread's cacheable log, and an abort unrolls that log newest-first (§3.2,
// §5.1). TokenTM and LogTM-SE embed it and differ only in conflict
// detection and release, so Figures 1 and 5 measure nothing else.
type Eager struct {
	// Variant is the paper's name for the variant (Name).
	Variant string
	// RetryLimit is the stall-retry backstop passed to the timestamp
	// policy (DefaultRetryLimit unless configured).
	RetryLimit int
	// Mem is the memory system log and data accesses go through.
	Mem *coherence.MemSys
	// Values holds the simulated memory contents.
	Values *mem.Store
	// Metrics aggregates evaluation counters.
	Metrics Metrics
}

// DefaultRetryLimit is the stall-retry backstop when none is configured.
// Timestamp ordering makes waits-for cycles impossible (young always waits
// on old), so the limit is only a livelock backstop, not a deadlock breaker.
const DefaultRetryLimit = 64

// Name returns the variant name.
func (e *Eager) Name() string { return e.Variant }

// Stats exposes the variant's metrics.
func (e *Eager) Stats() *Metrics { return &e.Metrics }

// Trap takes a conflict detected on b to the software contention manager:
// it counts the conflict, applies the timestamp policy (recording abort
// attribution on every loser) and returns the requester's outcome. walk is
// any log-walk time spent identifying the enemies (§5.2's hard case);
// falsePos marks a signature false positive.
func (e *Eager) Trap(req *Xact, b mem.BlockAddr, enemies []*Xact, retries int, walk mem.Cycle, kind ConflictKind, falsePos bool) Access {
	e.Metrics.Conflicts++
	e.Metrics.CountConflict(kind)
	if falsePos {
		e.Metrics.FalseConflicts++
	}
	lat := coherence.L1HitCycles + walk + conflictTrapCycles
	abort, dec := resolveTimestamp(req, enemies, retries, e.RetryLimit)
	applyResolution(req, enemies, abort, dec, b, kind)
	acc := Access{Outcome: AbortSelf, Latency: lat, Enemies: enemies, Kind: kind, False: falsePos}
	if dec != DecideAbortSelf {
		e.Metrics.Stalls++
		acc.Outcome = Stall
	}
	return acc
}

// LogTokens appends a token record crediting n tokens on b to th's log and
// returns the append's latency.
func (e *Eager) LogTokens(th *Thread, b mem.BlockAddr, n uint32) mem.Cycle {
	addr, size := th.Log.AppendToken(b, n)
	return e.logWrite(th, addr, size)
}

// LogData is a transaction's first store to b: it appends a data record
// holding b's current (pre-transaction) contents and crediting n tokens,
// adds b to the write set, and returns the append's latency.
func (e *Eager) LogData(th *Thread, b mem.BlockAddr, n uint32) mem.Cycle {
	var old [mem.WordsPerBlock]uint64
	base := b.Addr()
	for i := range old {
		old[i] = e.Values.Load(base + mem.Addr(i*mem.WordBytes))
	}
	addr, size := th.Log.AppendData(b, n, old)
	th.Xact.WriteSet[b] = struct{}{}
	return e.logWrite(th, addr, size)
}

// logWrite simulates appending a record to the thread's in-memory log. The
// cache state is updated with real accesses, but the core only stalls for a
// fraction of the raw miss time: log stores drain through the store buffer
// off the critical path. The residual stall is the transaction's log-stall
// time.
func (e *Eager) logWrite(th *Thread, addr mem.Addr, size int) mem.Cycle {
	var raw mem.Cycle
	first := addr.Block()
	last := (addr + mem.Addr(size) - 1).Block()
	for b := first; b <= last; b++ {
		raw += e.Mem.Access(th.Core, b, true)
	}
	lat := coherence.L1HitCycles
	if raw > coherence.L1HitCycles {
		stall := (raw - coherence.L1HitCycles) / logWriteOverlap
		lat += stall
		if th.InXact() {
			th.Xact.LogStall += stall
		}
	}
	return lat
}

// Unroll walks th's log newest-first, reading each record and writing every
// data record's old contents back, then empties the log. Releasing
// conflict-detection state is the caller's part of the abort.
func (e *Eager) Unroll(th *Thread) mem.Cycle {
	core := th.Core
	var lat mem.Cycle
	offset := th.Log.Bytes()
	recs := th.Log.Records()
	for i := len(recs) - 1; i >= 0; i-- {
		rec := &recs[i]
		offset -= rec.Bytes()
		lat += abortRecordCycles
		lat += e.Mem.Access(core, (th.Log.Base() + mem.Addr(offset)).Block(), false)
		if rec.Kind == tmlog.DataRecord {
			lat += e.Mem.Access(core, rec.Block, true)
			base := rec.Block.Addr()
			for j, w := range th.Log.Old(*rec) {
				e.Values.StoreWord(base+mem.Addr(j*mem.WordBytes), w)
			}
		}
	}
	th.Log.Reset()
	return lat
}
