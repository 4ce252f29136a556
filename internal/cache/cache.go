// Package cache models the set-associative caches of the simulated CMP:
// per-core private 32 KB 4-way L1s whose lines carry TokenTM's sparse
// metabits (with flash-clear and flash-OR circuits, §4.4), and the shared
// 8 MB 8-way 32-bank L2 (§6.1).
package cache

import (
	"fmt"

	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// CohState is a line's MESI coherence state.
type CohState uint8

// MESI states.
const (
	Invalid CohState = iota
	Shared
	Exclusive
	Modified
)

// String returns the single-letter MESI name.
func (s CohState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// CanRead reports whether the state grants read permission.
func (s CohState) CanRead() bool { return s != Invalid }

// CanWrite reports whether the state grants write permission.
func (s CohState) CanWrite() bool { return s == Exclusive || s == Modified }

// Line is one cache line: tag, coherence state, and (in L1s) the TokenTM
// metabits that travel with the block.
type Line struct {
	Block mem.BlockAddr
	State CohState
	Meta  metastate.L1Meta
	used  uint64 // LRU timestamp
}

// Cache is a set-associative cache. It tracks residency, replacement and
// per-line metabits; data values live in the simulator's global store.
//
// Sets materialize lazily on first insert: the modeled geometry (set count,
// associativity, replacement) is exactly that of the eager layout, but a
// run only pays host memory — and the zeroing of it — for the sets its
// footprint actually reaches. An untouched set costs its 4-byte slot: a
// 32-core machine has 20 480 sets, and small sweep runs fill a few percent.
type Cache struct {
	name    string
	setMask uint64
	tick    uint64
	assoc   int
	// slots locates each set's lines in the arena: the offset of its first
	// line in its chunk <<slotOffShift | slotTouched | the chunk number. A
	// zero slot is a set nothing was ever inserted into.
	slots []uint32
	// chunks is the line arena. A chunk is allocated when a set gets its
	// first line and the last chunk is full, and never moves, so *Line
	// pointers handed out stay valid forever. The fixed array of chunks
	// adds no allocation.
	chunks   [maxChunks][]Line
	nchunks  uint32
	chunkLen int // lines per chunk, a multiple of assoc
	fill     int // lines of the last chunk handed out; full when none
}

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
}

// L1Config is the paper's private L1: 32 KB, 4-way, 64 B blocks.
var L1Config = Config{Name: "L1", SizeBytes: 32 << 10, Assoc: 4}

// L2BankConfig is one of the 32 L2 banks: 8 MB total, 8-way.
var L2BankConfig = Config{Name: "L2bank", SizeBytes: (8 << 20) / 32, Assoc: 8}

// chunkLines is the least number of lines the arena allocates at a time;
// maxChunks bounds the chunk count, so a large cache gets larger chunks.
const (
	chunkLines = 512
	maxChunks  = 8
)

// Slot encoding: the chunk number sits in the low bits, so indexing
// chunks needs no bounds check.
const (
	slotTouched  = maxChunks
	slotOffShift = 4
)

// New builds a cache from a configuration.
func New(cfg Config) *Cache {
	nlines := cfg.SizeBytes / mem.BlockBytes
	nsets := nlines / cfg.Assoc
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d must be a power of two", cfg.Name, nsets))
	}
	setsPerChunk := min(max(chunkLines/cfg.Assoc, (nsets+maxChunks-1)/maxChunks), nsets)
	return &Cache{
		name:     cfg.Name,
		slots:    make([]uint32, nsets),
		setMask:  uint64(nsets - 1),
		assoc:    cfg.Assoc,
		chunkLen: setsPerChunk * cfg.Assoc,
		fill:     setsPerChunk * cfg.Assoc,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.slots) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// set returns the lines of b's set, or nil while no block was ever
// inserted into it: such a set holds no valid line, so lookups need not
// materialize it.
func (c *Cache) set(b mem.BlockAddr) []Line {
	slot := c.slots[uint64(b)&c.setMask]
	if slot == 0 {
		return nil
	}
	return c.lines(slot)
}

// lines returns the set's lines that a non-zero slot locates.
func (c *Cache) lines(slot uint32) []Line {
	off := int(slot >> slotOffShift)
	return c.chunks[slot%maxChunks][off : off+c.assoc : off+c.assoc]
}

// newSet materializes the lines of b's set on its first insert.
func (c *Cache) newSet(b mem.BlockAddr) []Line {
	if c.fill == c.chunkLen {
		c.chunks[c.nchunks] = make([]Line, c.chunkLen)
		c.nchunks++
		c.fill = 0
	}
	slot := uint32(c.fill)<<slotOffShift | slotTouched | (c.nchunks - 1)
	c.slots[uint64(b)&c.setMask] = slot
	c.fill += c.assoc
	return c.lines(slot)
}

// Lookup returns the line holding block b, or nil. It refreshes LRU state.
func (c *Cache) Lookup(b mem.BlockAddr) *Line {
	s := c.set(b)
	for i := range s {
		if s[i].State != Invalid && s[i].Block == b {
			c.tick++
			s[i].used = c.tick
			return &s[i]
		}
	}
	return nil
}

// Peek returns the line holding block b without touching LRU state.
func (c *Cache) Peek(b mem.BlockAddr) *Line {
	s := c.set(b)
	for i := range s {
		if s[i].State != Invalid && s[i].Block == b {
			return &s[i]
		}
	}
	return nil
}

// Insert places block b with the given state, returning the victim line's
// previous contents if a valid line had to be evicted. The caller must have
// ensured b is not already present.
func (c *Cache) Insert(b mem.BlockAddr, state CohState) (victim Line, evicted bool) {
	s := c.set(b)
	if s == nil {
		s = c.newSet(b)
	}
	c.tick++
	// Prefer an invalid way.
	vi := 0
	for i := range s {
		if s[i].State == Invalid {
			s[i] = Line{Block: b, State: state, used: c.tick}
			return Line{}, false
		}
		if s[i].used < s[vi].used {
			vi = i
		}
	}
	victim = s[vi]
	s[vi] = Line{Block: b, State: state, used: c.tick}
	return victim, true
}

// Invalidate removes block b, returning its prior contents.
func (c *Cache) Invalidate(b mem.BlockAddr) (old Line, ok bool) {
	if l := c.Peek(b); l != nil {
		old = *l
		l.State = Invalid
		l.Meta = metastate.L1Zero
		return old, true
	}
	return Line{}, false
}

// FlashClearRW applies the fast-token-release flash clear to every line: a
// constant-time hardware operation over the R and W metabit columns.
func (c *Cache) FlashClearRW() {
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].State != Invalid {
				ch[i].Meta.FlashClearRW()
			}
		}
	}
}

// FlashOR applies the context-switch flash-OR (R'|=R, W'|=W, clear R and W)
// to every line: the paper's two flash-OR circuits per cache block.
func (c *Cache) FlashOR() {
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].State != Invalid {
				ch[i].Meta.FlashOR()
			}
		}
	}
}

// VisitValid calls fn for every valid line, in set order.
func (c *Cache) VisitValid(fn func(*Line)) {
	for _, slot := range c.slots {
		if slot == 0 {
			continue
		}
		s := c.lines(slot)
		for i := range s {
			if s[i].State != Invalid {
				fn(&s[i])
			}
		}
	}
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	c.VisitValid(func(*Line) { n++ })
	return n
}
