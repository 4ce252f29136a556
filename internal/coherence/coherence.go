// Package coherence implements the simulated memory system: per-core
// private L1 caches kept coherent by a directory-based MESI protocol at the
// shared L2 banks, with non-silent evictions, over the tiled interconnect
// (paper §4, §6.1).
//
// TokenTM deliberately makes no changes to coherence states, transitions or
// semantics; it only piggybacks metastate on existing messages. This package
// mirrors that split: it owns residency, permissions and timing, and invokes
// a Listener at the points where metastate travels with data — when an L1
// copy is created (fission or fused exclusive delivery) and when a copy is
// lost (eviction or invalidation, whose acks carry the metastate home).
package coherence

import (
	"math/bits"

	"tokentm/internal/cache"
	"tokentm/internal/interconnect"
	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// Latency parameters (cycles) for the memory hierarchy.
const (
	L1HitCycles  mem.Cycle = 1
	L2HitCycles  mem.Cycle = 12
	DirCycles    mem.Cycle = 2
	DRAMCycles   mem.Cycle = 150
	L1FillCycles mem.Cycle = 1
)

// LossReason says why an L1 copy disappeared.
type LossReason int

// Loss reasons reported to the Listener.
const (
	// LossEvict is a capacity/conflict eviction chosen by the L1's
	// replacement policy. Evictions are non-silent: the directory is
	// notified and the metastate travels home with the (data) writeback.
	LossEvict LossReason = iota
	// LossInvalidate is an invalidation caused by another core's
	// exclusive request; the ack carries the metastate to the requester,
	// which fuses it (the paper's §5.2 hint mechanism).
	LossInvalidate
)

// FillInfo describes how a new L1 copy was produced.
type FillInfo struct {
	// Exclusive is true for write fills/upgrades: all other copies were
	// invalidated and their metastate (plus home's) fused into this copy.
	Exclusive bool
	// FromOwner is the core that forwarded the data, or -1 if the data
	// came from the home L2 bank or memory.
	FromOwner int
	// Upgrade is true when the core already held a Shared copy and only
	// permissions changed (the line and its metabits are retained).
	Upgrade bool
}

// Listener observes copy lifecycle events to move metastate with data.
type Listener interface {
	// CopyCreated runs after a fill or upgrade; the listener initializes
	// line.Meta (fission for shared fills, home-drain for exclusive ones).
	CopyCreated(core int, b mem.BlockAddr, line *cache.Line, info FillInfo)
	// CopyLost runs when a valid copy leaves an L1; meta is the line's
	// metabits at the time of loss.
	CopyLost(core int, b mem.BlockAddr, meta metastate.L1Meta, reason LossReason)
}

// nopListener is used when no listener is attached.
type nopListener struct{}

func (nopListener) CopyCreated(int, mem.BlockAddr, *cache.Line, FillInfo)     {}
func (nopListener) CopyLost(int, mem.BlockAddr, metastate.L1Meta, LossReason) {}

// Stats counts memory-system events.
type Stats struct {
	L1Hits        uint64
	L1Misses      uint64
	L2Hits        uint64
	MemAccesses   uint64
	Invalidations uint64
	Writebacks    uint64
	Upgrades      uint64
	Forwards      uint64
	// Evictions counts L1 replacement-policy victims (capacity/conflict
	// evictions chosen by LRU). The schedule explorer's state fingerprints
	// exclude LRU ordering, which is sound only while this stays zero.
	Evictions uint64
}

// dirEntry tracks one block's L1 copies.
type dirEntry struct {
	sharers uint32 // bitmask over cores
	owner   int8   // core with E/M copy, or -1
}

// MemSys is the full simulated memory system for NumCores cores.
type MemSys struct {
	NumCores int
	L1s      []*cache.Cache
	l2banks  []*cache.Cache
	noc      *interconnect.NoC
	// dir is the directory: it maps each block ever accessed to the index
	// of its entry in chunks, so it grows with the blocks touched rather
	// than the address range they span (workloads touch scattered blocks).
	// Entries are appended in creation order into fixed-size chunks that
	// never move, so a *dirEntry stays valid while later entries are
	// created; a block without an entry has no copies.
	dir      map[mem.BlockAddr]int32
	chunks   []*dirChunk
	listener Listener
	Stats    Stats
}

// dirChunkEntries is the number of directory entries allocated at a time.
const dirChunkEntries = 128

type dirChunk [dirChunkEntries]dirEntry

// NewMemSys builds the memory system with the paper's cache geometry.
func NewMemSys(numCores int) *MemSys {
	m := &MemSys{
		NumCores: numCores,
		noc:      interconnect.New(),
		dir:      make(map[mem.BlockAddr]int32),
		listener: nopListener{},
	}
	for i := 0; i < numCores; i++ {
		m.L1s = append(m.L1s, cache.New(cache.L1Config))
	}
	for i := 0; i < interconnect.L2Banks; i++ {
		m.l2banks = append(m.l2banks, cache.New(cache.L2BankConfig))
	}
	return m
}

// SetListener attaches the metastate listener (the HTM system).
func (m *MemSys) SetListener(l Listener) { m.listener = l }

// entry returns b's directory entry, creating it ({no sharers, no owner})
// on first touch. The pointer stays valid for the machine's lifetime.
func (m *MemSys) entry(b mem.BlockAddr) *dirEntry {
	i, ok := m.dir[b]
	if !ok {
		i = int32(len(m.dir))
		if i%dirChunkEntries == 0 {
			m.chunks = append(m.chunks, new(dirChunk))
		}
		m.dir[b] = i
		m.at(i).owner = -1
	}
	return m.at(i)
}

func (m *MemSys) at(i int32) *dirEntry {
	return &m.chunks[i/dirChunkEntries][i%dirChunkEntries]
}

// SharerMask returns the bitmask of cores currently holding a copy of b
// (bit c set means core c has a copy). This is the allocation-free form of
// Sharers, for latency-bearing probe loops.
func (m *MemSys) SharerMask(b mem.BlockAddr) uint32 {
	if i, ok := m.dir[b]; ok {
		return m.at(i).sharers
	}
	return 0
}

// Sharers returns the cores currently holding a copy of b, in core order
// (diagnostics and tests; hot paths walk SharerMask instead).
func (m *MemSys) Sharers(b mem.BlockAddr) []int {
	var out []int
	for mask := m.SharerMask(b); mask != 0; mask &= mask - 1 {
		out = append(out, bits.TrailingZeros32(mask))
	}
	return out
}

// LineAt returns core's L1 line for b without disturbing LRU state.
func (m *MemSys) LineAt(core int, b mem.BlockAddr) *cache.Line {
	return m.L1s[core].Peek(b)
}

// HasCopy reports whether core's L1 holds b.
func (m *MemSys) HasCopy(core int, b mem.BlockAddr) bool {
	return m.L1s[core].Peek(b) != nil
}

// Access performs a load (write=false) or store (write=true) by core to
// block b, updating residency and permissions and returning the latency.
// The Listener hooks fire for every copy created or lost.
func (m *MemSys) Access(core int, b mem.BlockAddr, write bool) mem.Cycle {
	l1 := m.L1s[core]
	line := l1.Lookup(b)
	if line != nil {
		if !write && line.State.CanRead() {
			m.Stats.L1Hits++
			return L1HitCycles
		}
		if write && line.State.CanWrite() {
			m.Stats.L1Hits++
			line.State = cache.Modified
			return L1HitCycles
		}
		if write && line.State == cache.Shared {
			// Upgrade: invalidate the other sharers, keep our line.
			m.Stats.L1Misses++
			m.Stats.Upgrades++
			lat := L1HitCycles + m.requestLatency(core, b, 0) + DirCycles
			lat += m.invalidateOthers(core, b)
			line.State = cache.Modified
			e := m.entry(b)
			e.owner = int8(core)
			m.listener.CopyCreated(core, b, line, FillInfo{Exclusive: true, FromOwner: -1, Upgrade: true})
			return lat
		}
	}

	// Full miss.
	m.Stats.L1Misses++
	lat := L1HitCycles + m.requestLatency(core, b, 0) + DirCycles
	e := m.entry(b)

	fromOwner := -1
	if e.owner >= 0 && int(e.owner) != core {
		// Forward from the current E/M owner.
		owner := int(e.owner)
		m.Stats.Forwards++
		lat += m.noc.Latency(interconnect.BankTile(interconnect.BankOf(b)), interconnect.CoreTile(owner), 0)
		lat += L1HitCycles
		lat += m.noc.CoreToCore(owner, core, mem.BlockBytes)
		fromOwner = owner
		if write {
			// Owner's copy is invalidated; its metastate rides the ack.
			m.loseCopy(owner, b, LossInvalidate)
		} else {
			// Owner downgrades to Shared and writes back; its line and
			// metabits stay in place.
			ol := m.L1s[owner].Peek(b)
			if ol != nil && ol.State == cache.Modified {
				m.Stats.Writebacks++
				m.l2Fill(b)
			}
			if ol != nil {
				ol.State = cache.Shared
			}
			e.owner = -1
		}
	} else {
		// Data comes from the home bank (L2) or memory.
		bank := interconnect.BankOf(b)
		if m.l2banks[bank].Lookup(b) != nil {
			m.Stats.L2Hits++
			lat += L2HitCycles
		} else {
			m.Stats.MemAccesses++
			lat += L2HitCycles + m.noc.BankToMem(bank, b, 0) + DRAMCycles +
				m.noc.BankToMem(bank, b, mem.BlockBytes)
			m.l2Fill(b)
		}
		lat += m.noc.BankToCore(bank, core, mem.BlockBytes)
	}

	if write {
		lat += m.invalidateOthers(core, b)
	}

	// Install the line, evicting a victim non-silently if necessary.
	state := cache.Shared
	if write {
		state = cache.Modified
	} else if e.sharers == 0 && e.owner < 0 {
		state = cache.Exclusive
	}
	victim, evicted := l1.Insert(b, state)
	if evicted {
		m.Stats.Evictions++
		m.retire(core, victim, LossEvict)
	}
	lat += L1FillCycles
	e.sharers |= 1 << uint(core)
	if state == cache.Modified || state == cache.Exclusive {
		e.owner = int8(core)
	}
	newLine := l1.Peek(b)
	m.listener.CopyCreated(core, b, newLine, FillInfo{Exclusive: write, FromOwner: fromOwner})
	return lat
}

// requestLatency is the cost of the request message from core to b's home
// bank.
func (m *MemSys) requestLatency(core int, b mem.BlockAddr, payload int) mem.Cycle {
	return m.noc.CoreToBank(core, interconnect.BankOf(b), payload)
}

// invalidateOthers removes all other cores' copies of b, charging the
// longest invalidation round trip (invalidations are sent in parallel).
func (m *MemSys) invalidateOthers(requester int, b mem.BlockAddr) mem.Cycle {
	e := m.entry(b)
	bankTile := interconnect.BankTile(interconnect.BankOf(b))
	var worst mem.Cycle
	for c := 0; c < m.NumCores; c++ {
		if c == requester || e.sharers&(1<<uint(c)) == 0 {
			continue
		}
		m.Stats.Invalidations++
		rt := m.noc.Latency(bankTile, interconnect.CoreTile(c), 0) + L1HitCycles +
			m.noc.CoreToCore(c, requester, 0)
		if rt > worst {
			worst = rt
		}
		m.loseCopy(c, b, LossInvalidate)
	}
	if int(e.owner) != requester {
		e.owner = -1
	}
	return worst
}

// loseCopy invalidates core's copy of b and fires the listener.
func (m *MemSys) loseCopy(core int, b mem.BlockAddr, reason LossReason) {
	old, ok := m.L1s[core].Invalidate(b)
	if !ok {
		return
	}
	if old.State == cache.Modified {
		m.Stats.Writebacks++
		m.l2Fill(b)
	}
	e := m.entry(b)
	e.sharers &^= 1 << uint(core)
	if int(e.owner) == core {
		e.owner = -1
	}
	m.listener.CopyLost(core, b, old.Meta, reason)
}

// retire handles a victim chosen by L1 replacement (non-silent eviction).
func (m *MemSys) retire(core int, victim cache.Line, reason LossReason) {
	if victim.State == cache.Modified {
		m.Stats.Writebacks++
		m.l2Fill(victim.Block)
	}
	e := m.entry(victim.Block)
	e.sharers &^= 1 << uint(core)
	if int(e.owner) == core {
		e.owner = -1
	}
	m.listener.CopyLost(core, victim.Block, victim.Meta, reason)
}

// l2Fill caches b in its home L2 bank (timing only; L2 victims are silent
// because home metastate lives at memory in this model).
func (m *MemSys) l2Fill(b mem.BlockAddr) {
	bank := m.l2banks[interconnect.BankOf(b)]
	if bank.Lookup(b) == nil {
		bank.Insert(b, cache.Shared)
	}
}

// EvictAll removes every L1 copy of block b, reporting each loss as an
// eviction (used by the paging model before a page leaves memory).
func (m *MemSys) EvictAll(b mem.BlockAddr) {
	for c := 0; c < m.NumCores; c++ {
		m.loseCopy(c, b, LossEvict)
	}
	bank := m.l2banks[interconnect.BankOf(b)]
	bank.Invalidate(b)
}

// FlushCore invalidates every line in core's L1 (used by tests only; the
// paging model does not call it); each loss is reported as an eviction.
func (m *MemSys) FlushCore(core int) {
	var blocks []mem.BlockAddr
	m.L1s[core].VisitValid(func(l *cache.Line) { blocks = append(blocks, l.Block) })
	for _, b := range blocks {
		m.loseCopy(core, b, LossEvict)
	}
}
