package stm

import "fmt"

// Per-transaction logs, and (below) a visible attempt's read set. Each log
// is one slice whose storage is retained across attempts and transactions,
// so a warm thread appends without allocating. The paper's fast release is
// a size criterion, not a second structure: an attempt whose every log
// stayed within inlineLog entries counts in stats.FastReleases, any larger
// one in stats.SlowReleases.
const inlineLog = 24

// undoEnt records one overwritten word for abort rollback.
type undoEnt struct {
	addr Addr
	old  uint64
}

// txLogs is the attempt-scoped log set: blocks read (holding a read token on
// a visible attempt, a stamp to re-validate on an invisible one), blocks
// holding write tokens, and word-granular undo records. Undo entries are
// appended per store without deduplication; reverse replay restores the
// oldest value last, which makes duplicates harmless. An invisible attempt
// logs every bound read, so its read log may name a block twice, as TL2's
// read set does; re-validating a duplicate is harmless too. An undo entry is
// the log step of a write path's claim, log, store order, which the rollback
// tests (TestErrorRollsBack, TestMaxAttemptsSurfacesErrAborted) pin.
type txLogs struct {
	read  []uint32
	write []uint32
	undo  []undoEnt
}

// reset empties the logs, retaining their storage.
func (l *txLogs) reset() {
	l.read = l.read[:0]
	l.write = l.write[:0]
	l.undo = l.undo[:0]
}

// inline reports whether every log stayed within inlineLog entries — the
// fast-release criterion.
func (l *txLogs) inline() bool {
	return len(l.read) <= inlineLog && len(l.write) <= inlineLog && len(l.undo) <= inlineLog
}

// readSet is the exact set of blocks a visible attempt holds a read token on:
// the host's R bits for token reads. (The W bit is the token word itself, and
// an invisible read holds nothing to remember.) It answers the two questions
// the read log cannot in O(1): is this block already read, and does a write
// claim have a read token to fold in. It is exact, never a filter — a false
// positive would skip a token, a false negative would double-count one.
//
// Slots hold gen<<32 | block, open-addressed and probed linearly. A slot is
// live only if it carries the current gen, so reset empties the set by
// bumping gen — the host analog of the paper's L1 flash-clear — and the table
// is wiped only when gen wraps. gen is never 0 while in use, because zeroed
// slots carry gen 0. The table starts at readSetInit slots on a thread's
// first token read, doubles past half full, and keeps its storage: its size
// follows the largest footprint the thread has read by token, not the TM.
type readSet struct {
	slots []uint64
	n     uint32 // live entries
	gen   uint32
}

const readSetInit = 128

// reset empties the set for a new attempt.
func (s *readSet) reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
}

// readSetHash spreads block numbers over the table; the high half of a
// Fibonacci product depends on every bit of b.
func readSetHash(b uint32) uint32 { return uint32(uint64(b) * 0x9e3779b97f4a7c15 >> 32) }

// has reports whether b is in the set. A probe ends at b's entry or at the
// first slot not live in this generation, and never passes every slot.
func (s *readSet) has(b uint32) bool {
	if s.n == 0 {
		return false
	}
	key := uint64(s.gen)<<32 | uint64(b)
	mask := uint32(len(s.slots) - 1)
	i := readSetHash(b) & mask
	for range s.slots {
		switch e := s.slots[i]; {
		case e == key:
			return true
		case e>>32 != uint64(s.gen):
			return false
		}
		i = (i + 1) & mask
	}
	return false
}

// add inserts b, which must not be in the set.
func (s *readSet) add(b uint32) {
	if 2*(s.n+1) > uint32(len(s.slots)) {
		// The table doubles past half full and is kept across attempts, so a
		// warm thread stops growing it (TestAllocFreeAnnotations/readSet.add).
		s.grow()
	}
	s.insert(uint64(s.gen)<<32 | uint64(b))
	s.n++
}

// insert places a live entry in the first slot not live in its generation.
// add keeps the table at most half live, so a full one means an entry
// outlived its attempt.
func (s *readSet) insert(key uint64) {
	mask := uint32(len(s.slots) - 1)
	i := readSetHash(uint32(key)) & mask
	for range s.slots {
		if s.slots[i]>>32 != key>>32 {
			s.slots[i] = key
			return
		}
		i = (i + 1) & mask
	}
	panic(fmt.Sprintf("stm: read set full at %d slots with %d entries", len(s.slots), s.n))
}

// grow doubles the table (or creates it) and re-inserts the live entries.
func (s *readSet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(readSetInit, 2*len(old)))
	for _, e := range old {
		if e>>32 == uint64(s.gen) {
			s.insert(e)
		}
	}
}
