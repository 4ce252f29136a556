// Package core implements TokenTM, the paper's primary contribution: an
// unbounded HTM whose conflict detection counts per-block transactional
// tokens with double-entry bookkeeping (§3), implemented over an unmodified
// MESI directory protocol by piggybacking metastate on coherence messages
// with metastate fission/fusion (§4.2), in-memory metabits (§4.3), and fast
// token release (§4.4).
//
// Token placement invariant maintained by this implementation: a thread's
// tokens for block b live either (a) in its own core's L1 line for b — as R
// or W bits, as R'/W' bits after a context switch, or folded into the
// anonymous R+ count — or (b) in the block's home metastate (after the line
// was evicted or invalidated, whose acks carry metastate home). Conflict
// probes fuse the home metastate with every L1 copy's metabits, exactly the
// fusion the hardware performs with invalidation-ack piggybacks.
package core

import (
	"fmt"
	"math/bits"
	"sort"

	"tokentm/internal/cache"
	"tokentm/internal/coherence"
	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// TokenTM is the token-based HTM system. It implements htm.System and
// coherence.Listener.
type TokenTM struct {
	htm.Eager
	fastRelease bool
	// mutation, when not MutNone, disables one protocol rule so the
	// schedule explorer can prove it detects the resulting violations.
	mutation Mutation

	// home is the metastate at the block's home (memory/L2 in this
	// model); blocks absent from the map are (0,-).
	home     map[mem.BlockAddr]metastate.Meta
	overflow *metastate.OverflowTable

	byTID   map[mem.TID]*htm.Thread
	threads []*htm.Thread // registered threads, sorted by TID
	running []*htm.Thread // thread currently on each core

	// Scratch storage reused by probe and enemy enumeration so the hot
	// paths allocate nothing. Results aliasing these buffers (probeResult
	// readers, enemiesOf slices) are valid only until the next probe or
	// enemy enumeration on this machine — the simulator serializes all
	// accesses, and every consumer finishes before the next access starts.
	readerScratch []mem.TID
	enemyScratch  []*htm.Xact
	tidScratch    []mem.TID
}

var (
	_ htm.System         = (*TokenTM)(nil)
	_ coherence.Listener = (*TokenTM)(nil)
)

// Option configures the TokenTM system.
type Option func(*TokenTM)

// WithoutFastRelease builds the paper's TokenTM_NoFast variant: every commit
// releases tokens in software.
func WithoutFastRelease() Option {
	return func(t *TokenTM) {
		t.fastRelease = false
		t.Variant = "TokenTM_NoFast"
	}
}

// WithRetryLimit sets how many stalled retries a transaction tolerates
// against an older enemy before aborting itself.
func WithRetryLimit(n int) Option {
	return func(t *TokenTM) { t.RetryLimit = n }
}

// New builds a TokenTM system over the given memory system and value store,
// and attaches itself as the coherence metastate listener.
func New(ms *coherence.MemSys, store *mem.Store, opts ...Option) *TokenTM {
	t := &TokenTM{
		Eager:       htm.Eager{Variant: "TokenTM", RetryLimit: htm.DefaultRetryLimit, Mem: ms, Values: store},
		fastRelease: true,
		home:        make(map[mem.BlockAddr]metastate.Meta),
		overflow:    metastate.NewOverflowTable(),
		byTID:       make(map[mem.TID]*htm.Thread),
		running:     make([]*htm.Thread, ms.NumCores),
	}
	for _, o := range opts {
		o(t)
	}
	ms.SetListener(t)
	return t
}

// Register introduces a thread, keeping the thread list sorted by TID so
// every walk over "all threads" (hard-case lookups, anonymous-token
// revocation, bookkeeping checks) visits them in a fixed order.
func (t *TokenTM) Register(th *htm.Thread) {
	i := sort.Search(len(t.threads), func(i int) bool { return t.threads[i].TID >= th.TID })
	if i < len(t.threads) && t.threads[i].TID == th.TID {
		t.threads[i] = th
	} else {
		t.threads = append(t.threads, nil)
		copy(t.threads[i+1:], t.threads[i:])
		t.threads[i] = th
	}
	t.byTID[th.TID] = th
}

// RunningOn records which thread occupies a core.
func (t *TokenTM) RunningOn(core int, th *htm.Thread) { t.running[core] = th }

func (t *TokenTM) curTID(core int) mem.TID {
	if th := t.running[core]; th != nil {
		return th.TID
	}
	return mem.NoTID
}

// HomeMeta returns the metastate stored at block b's home.
func (t *TokenTM) HomeMeta(b mem.BlockAddr) metastate.Meta { return t.home[b] }

func (t *TokenTM) setHome(b mem.BlockAddr, m metastate.Meta) {
	if m.IsZero() {
		delete(t.home, b)
		return
	}
	t.home[b] = m
}

func mustFuse(a, b metastate.Meta) metastate.Meta {
	m, err := metastate.Fuse(a, b)
	if err != nil {
		panic(fmt.Sprintf("tokentm: bookkeeping invariant violated: %v", err))
	}
	return m
}

func mustL1(m metastate.Meta, cur mem.TID) metastate.L1Meta {
	l, err := metastate.L1FromMeta(m, cur)
	if err != nil {
		panic(fmt.Sprintf("tokentm: %v", err))
	}
	return l
}

// CopyCreated implements coherence.Listener: metastate arrives with data.
// Shared fills perform metastate fission at the home copy; exclusive fills
// (write misses and upgrades) receive home's metastate fused with the
// invalidation acks, which CopyLost has already folded home.
func (t *TokenTM) CopyCreated(core int, b mem.BlockAddr, line *cache.Line, info coherence.FillInfo) {
	cur := t.curTID(core)
	if info.Exclusive {
		fused := mustFuse(t.home[b], line.Meta.Logical())
		t.setHome(b, metastate.Zero)
		line.Meta = mustL1(fused, cur)
		return
	}
	kept, newCopy := metastate.Fission(t.home[b])
	t.setHome(b, kept)
	if t.mutation == MutNoFissionWriter {
		newCopy = metastate.Zero
	}
	line.Meta = mustL1(newCopy, cur)
}

// CopyLost implements coherence.Listener: a copy's metastate travels home on
// the (non-silent) eviction or invalidation ack. Losing a line that carried
// a transaction's tokens revokes that transaction's fast-release
// eligibility (§4.4).
func (t *TokenTM) CopyLost(core int, b mem.BlockAddr, lmeta metastate.L1Meta, reason coherence.LossReason) {
	m := lmeta.Logical()
	if !m.IsZero() {
		t.setHome(b, mustFuse(t.home[b], m))
	}
	if lmeta.R || lmeta.W {
		if th := t.running[core]; th != nil && th.InXact() {
			th.Xact.FastOK = false
		}
	}
	if lmeta.Rp || lmeta.Wp {
		if th := t.byTID[mem.TID(lmeta.Attr)]; th != nil && th.InXact() {
			th.Xact.FastOK = false
		}
	}
	if lmeta.RPlus {
		// Anonymous tokens: conservatively revoke every transaction
		// holding tokens on this block (rare; only after context
		// switches fold counts).
		for _, th := range t.threads {
			if th.InXact() && th.Xact.Tokens.Get(b) > 0 {
				th.Xact.FastOK = false
			}
		}
	}
}

// probeResult summarizes the fused global metastate of a block. The readers
// slice is backed by the system's scratch buffer: it is valid only until the
// next probe.
type probeResult struct {
	sum     uint32
	writer  mem.TID   // NoTID if no writer
	readers []mem.TID // identified single readers (possibly with duplicates)
	anon    uint32    // anonymous reader tokens
}

// collect folds one metastate copy into the probe summary.
func (p *probeResult) collect(b mem.BlockAddr, m metastate.Meta) {
	switch {
	case m.IsZero():
	case m.IsWriter():
		if p.writer != mem.NoTID && p.writer != m.TID {
			panic(fmt.Sprintf("tokentm: two writers on %v: X%d and X%d", b, p.writer, m.TID))
		}
		p.writer = m.TID
	case m.IsIdentified():
		p.readers = append(p.readers, m.TID)
	default:
		p.anon += m.Sum
	}
}

// probe fuses the home metastate with every L1 copy's metabits — the same
// information the hardware requester assembles from the data response and
// invalidation-ack piggybacks (§5.2). It runs on every transactional miss
// and every store, so it allocates nothing: sharers are walked as a bitmask
// and the reader list reuses the system's scratch buffer.
func (t *TokenTM) probe(b mem.BlockAddr) probeResult {
	p := probeResult{readers: t.readerScratch[:0]}
	p.collect(b, t.home[b])
	for mask := t.Mem.SharerMask(b); mask != 0; mask &= mask - 1 {
		if line := t.Mem.LineAt(bits.TrailingZeros32(mask), b); line != nil {
			p.collect(b, line.Meta.Logical())
		}
	}
	t.readerScratch = p.readers[:0]
	if p.writer != mem.NoTID {
		p.sum = metastate.T
		if p.anon > 0 || len(p.readers) > 0 {
			panic(fmt.Sprintf("tokentm: writer X%d coexists with readers on %v", p.writer, b))
		}
	} else {
		p.sum = p.anon + uint32(len(p.readers))
	}
	return p
}

// enemiesOf maps identified TIDs (excluding self) to their active
// transactions, deduplicating without allocation (probe reader lists are a
// handful of entries, so the quadratic scan beats a map). The returned slice
// reuses scratch storage: it is valid only until the next enemy enumeration.
func (t *TokenTM) enemiesOf(tids []mem.TID, self mem.TID) []*htm.Xact {
	out := t.enemyScratch[:0]
	for i, id := range tids {
		if id == self || id == mem.NoTID || containsTID(tids[:i], id) {
			continue
		}
		if th := t.byTID[id]; th != nil && th.InXact() {
			out = append(out, th.Xact)
		}
	}
	t.enemyScratch = out
	return out
}

// enemiesOf1 is enemiesOf for a single candidate TID.
func (t *TokenTM) enemiesOf1(id, self mem.TID) []*htm.Xact {
	t.tidScratch = append(t.tidScratch[:0], id)
	return t.enemiesOf(t.tidScratch, self)
}

func containsTID(tids []mem.TID, id mem.TID) bool {
	for _, t := range tids {
		if t == id {
			return true
		}
	}
	return false
}

// hardCaseLookup implements §5.2's hardest case: when anonymous reader
// tokens hide the enemy set, the contention manager walks the logs of
// active transactions — in sorted TID order, so the walk (and the enemy
// list it builds) is identical across identical runs. The returned latency
// is proportional to the log records scanned; the slice reuses the enemy
// scratch buffer.
func (t *TokenTM) hardCaseLookup(b mem.BlockAddr, self mem.TID) ([]*htm.Xact, mem.Cycle) {
	t.Metrics.HardCaseLookups++
	enemies := t.enemyScratch[:0]
	var lat mem.Cycle
	for _, th := range t.threads {
		if !th.InXact() || th.TID == self {
			continue
		}
		lat += mem.Cycle(th.Log.Len()) * htm.LogWalkPerRecordCycles
		if th.Xact.Tokens.Get(b) > 0 {
			enemies = append(enemies, th.Xact)
		}
	}
	t.enemyScratch = enemies
	return enemies, lat
}

// Begin starts a transaction attempt; the simulator has already installed
// th.Xact.
func (t *TokenTM) Begin(th *htm.Thread, now mem.Cycle) mem.Cycle {
	return htm.BeginCycles
}

// Load performs a transactional (or strongly atomic non-transactional) read.
//
// When a copy of the block is already resident, the conflict check is purely
// local: metastate fission guarantees a transactional writer's (T,X) is
// replicated onto every copy, so readers examine and modify only their local
// metabits (§4.2). On a miss, the requester inspects the metastate fused
// from the data response, modeled here by probing the global state before
// the coherence transition.
func (t *TokenTM) Load(th *htm.Thread, addr mem.Addr, retries int) (uint64, htm.Access) {
	b := addr.Block()
	core := th.Core
	x := th.Xact
	if x != nil && x.AbortRequested {
		return 0, htm.Access{Outcome: htm.AbortSelf}
	}

	line := t.Mem.LineAt(core, b)
	if line == nil {
		// Miss: the requester sees the metastate arriving with the data;
		// model the check on the fused global state before the fill.
		p := t.probe(b)
		self := mem.NoTID
		if x != nil {
			self = x.TID
		}
		if p.writer != mem.NoTID && p.writer != self {
			enemies := t.enemiesOf1(p.writer, self)
			return 0, t.Trap(x, b, enemies, retries, 0, htm.KindReadVsWriter, false)
		}
		lat := t.Mem.Access(core, b, false)
		line = t.Mem.LineAt(core, b)
		if x == nil {
			return t.Values.Load(addr), htm.Access{Latency: lat}
		}
		lat += t.acquireRead(th, line, b)
		return t.Values.Load(addr), htm.Access{Latency: lat}
	}

	// Resident copy: local metabits carry the whole truth about writers.
	if x == nil {
		if line.Meta.Wp {
			enemies := t.enemiesOf1(mem.TID(line.Meta.Attr), mem.NoTID)
			return 0, t.Trap(nil, b, enemies, retries, 0, htm.KindNonXact, false)
		}
		lat := t.Mem.Access(core, b, false)
		return t.Values.Load(addr), htm.Access{Latency: lat}
	}
	if line.Meta.Wp && mem.TID(line.Meta.Attr) != x.TID {
		enemies := t.enemiesOf1(mem.TID(line.Meta.Attr), x.TID)
		return 0, t.Trap(x, b, enemies, retries, 0, htm.KindReadVsWriter, false)
	}
	lat := t.Mem.Access(core, b, false)
	lat += t.acquireRead(th, line, b)
	return t.Values.Load(addr), htm.Access{Latency: lat}
}

// acquireRead applies the local read-acquire rules and logs any new token.
func (t *TokenTM) acquireRead(th *htm.Thread, line *cache.Line, b mem.BlockAddr) mem.Cycle {
	x := th.Xact
	res := line.Meta.AcquireRead(x.TID)
	if !res.OK {
		panic(fmt.Sprintf("tokentm: read acquire failed after pre-check on %v: %+v", b, res))
	}
	var lat mem.Cycle
	if res.TokensAcquired > 0 {
		x.Tokens.Add(b, res.TokensAcquired)
		if t.mutation != MutSkipLogCredit {
			lat += t.LogTokens(th, b, res.TokensAcquired)
		}
	}
	x.ReadSet[b] = struct{}{}
	return lat
}

// Store performs a transactional (or strongly atomic non-transactional)
// write.
func (t *TokenTM) Store(th *htm.Thread, addr mem.Addr, val uint64, retries int) htm.Access {
	b := addr.Block()
	core := th.Core
	x := th.Xact
	if x != nil && x.AbortRequested {
		return htm.Access{Outcome: htm.AbortSelf}
	}

	// Fast paths on a writable resident copy. Holding M/E means no other
	// core has a copy, and any foreign tokens would have blocked the
	// transition that granted us write permission, so the local metabits
	// are authoritative.
	if line := t.Mem.LineAt(core, b); line != nil && line.State.CanWrite() {
		if x != nil && line.Meta.W {
			lat := t.Mem.Access(core, b, true)
			t.Values.StoreWord(addr, val)
			return htm.Access{Latency: lat}
		}
		if x == nil && line.Meta.IsZero() {
			lat := t.Mem.Access(core, b, true)
			t.Values.StoreWord(addr, val)
			return htm.Access{Latency: lat}
		}
	}

	p := t.probe(b)
	if x == nil {
		// Strong atomicity: a non-transactional store conflicts with any
		// transactional tokens. A writer excludes readers (probe enforces
		// this), so the candidate set is exactly one of the two — never
		// readers plus a NoTID writer sentinel.
		if p.sum > 0 {
			var enemies []*htm.Xact
			if p.writer != mem.NoTID {
				enemies = t.enemiesOf1(p.writer, mem.NoTID)
			} else {
				enemies = t.enemiesOf(p.readers, mem.NoTID)
			}
			if uint32(len(enemies)) < minNonWriter(p) {
				more, walkLat := t.hardCaseLookup(b, mem.NoTID)
				enemies = more
				return t.Trap(nil, b, enemies, retries, walkLat, htm.KindNonXact, false)
			}
			return t.Trap(nil, b, enemies, retries, 0, htm.KindNonXact, false)
		}
		lat := t.Mem.Access(core, b, true)
		t.Values.StoreWord(addr, val)
		return htm.Access{Latency: lat}
	}

	mine := x.Tokens.Get(b)
	claim, needed, ok := metastate.ClaimWrite(metastate.Meta{Sum: p.sum, TID: p.writer}, x.TID, mine)
	if !ok {
		if p.writer != mem.NoTID {
			return t.Trap(x, b, t.enemiesOf1(p.writer, x.TID), retries, 0, htm.KindWriteVsWriter, false)
		}
		others := p.sum - mine
		enemies := t.enemiesOf(p.readers, x.TID)
		var walkLat mem.Cycle
		if uint32(len(enemies)) < others {
			// Unknown readers hide in anonymous counts: §5.2's
			// hardest case.
			enemies, walkLat = t.hardCaseLookup(b, x.TID)
		}
		return t.Trap(x, b, enemies, retries, walkLat, htm.KindWriteVsReaders, false)
	}

	lat := t.Mem.Access(core, b, true)
	line := t.Mem.LineAt(core, b)
	// The pre-check proved every outstanding debit is ours, so the write
	// takes all remaining tokens (ClaimWrite's anonymous-count-is-all-mine
	// case, §5.2). The coherence upgrade folded every other copy's
	// metastate home (CopyLost), and the (T,X) metabits we set now assert
	// all T debits locally — so the homed share (e.g. our own reader token
	// stranded by an earlier eviction or page-out) is absorbed into the
	// claim, not left to double-count.
	t.setHome(b, metastate.Zero)
	line.Meta = mustL1(claim, x.TID)

	if _, seen := x.WriteSet[b]; !seen {
		lat += t.LogData(th, b, needed)
	} else if needed != 0 {
		panic("tokentm: rewritten block missing tokens")
	}
	x.Tokens.Add(b, needed)
	t.Values.StoreWord(addr, val)
	return htm.Access{Latency: lat}
}

// minNonWriter returns the number of token holders a non-transactional
// conflict must identify (the writer counts as one, readers as their sum).
func minNonWriter(p probeResult) uint32 {
	if p.writer != mem.NoTID {
		return 1
	}
	return p.sum
}

// Commit ends th's transaction. If fast release is enabled and still legal,
// tokens are returned by flash-clearing the L1's R/W columns and resetting
// the log pointer, in constant time. Otherwise the software handler walks
// the log, releasing tokens block by block with real (simulated) memory
// accesses.
func (t *TokenTM) Commit(th *htm.Thread) (mem.Cycle, bool) {
	x := th.Xact
	if t.fastRelease && x.FastOK {
		t.Mem.L1s[th.Core].FlashClearRW()
		th.Log.Reset()
		x.Tokens.Reset()
		x.Active = false
		return htm.FastCommitCycles, true
	}
	lat := t.softwareRelease(th)
	x.Active = false
	return lat, false
}

// softwareRelease walks the log, charging the trap handler per record plus
// the memory accesses to read the log and touch each block's metastate.
func (t *TokenTM) softwareRelease(th *htm.Thread) mem.Cycle {
	x := th.Xact
	core := th.Core
	var lat mem.Cycle
	offset := 0
	for _, rec := range th.Log.Records() {
		lat += htm.ReleaseRecordCycles
		lat += t.Mem.Access(core, (th.Log.Base() + mem.Addr(offset)).Block(), false)
		offset += rec.Bytes()
	}
	// Release in ascending block order — TokenSet keeps its block list
	// sorted, so the simulated access sequence (and therefore cache state
	// and cycle totals) is identical across identical runs.
	for _, b := range x.Tokens.Blocks() {
		lat += t.Mem.Access(core, b, false)
		t.releaseBlock(th, b, x.Tokens.Get(b))
	}
	th.Log.Reset()
	x.Tokens.Reset()
	return lat
}

// releaseBlock credits total tokens for block b back to the metastate: the
// thread's own L1 line first (L1Meta.Release), then home (Release) for the
// rest. A writer checks home even when the line held its (T,me), because
// fission may have left a duplicate there.
func (t *TokenTM) releaseBlock(th *htm.Thread, b mem.BlockAddr, total uint32) {
	me := th.TID
	var taken uint32
	if line := t.Mem.LineAt(th.Core, b); line != nil {
		taken = line.Meta.Release(me, total)
	}
	n := total - taken
	if total == metastate.T {
		n = total
	}
	if n > 0 {
		next, k := metastate.Release(t.home[b], me, n)
		t.setHome(b, next)
		taken += k
	}
	if taken < total {
		panic(fmt.Sprintf("tokentm: release lost %d tokens for X%d on %v", total-taken, me, b))
	}
}

// Abort unrolls the transaction: the log is walked in reverse restoring
// pre-transaction data, then all tokens are released.
func (t *TokenTM) Abort(th *htm.Thread) mem.Cycle {
	x := th.Xact
	lat := t.Unroll(th)
	// Ascending block order, matching softwareRelease's determinism rule.
	for _, b := range x.Tokens.Blocks() {
		lat += t.Mem.Access(th.Core, b, false)
		t.releaseBlock(th, b, x.Tokens.Get(b))
	}
	x.Tokens.Reset()
	x.Active = false
	return lat
}

// ContextSwitch swaps threads on a core using the constant-time flash-OR:
// the departing thread's R/W bits become R'/W' bits, freeing the columns for
// the incoming thread, at the cost of the departing transaction's
// fast-release eligibility (§4.4).
func (t *TokenTM) ContextSwitch(core int, out, in *htm.Thread) mem.Cycle {
	t.Mem.L1s[core].FlashOR()
	if out != nil && out.InXact() {
		out.Xact.FastOK = false
	}
	t.running[core] = in
	return htm.CtxSwitchCycles
}
