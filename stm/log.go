package stm

import "fmt"

// Per-transaction logs, and (below) a visible attempt's read set. Small
// transactions — the common case the paper optimizes for — stay entirely
// within fixed inline arrays: no heap traffic, no pointer chasing, and the
// release walk touches one cache-resident struct. Footprints beyond
// inlineLog entries spill to heap slices whose storage is retained across
// attempts and transactions, so even the slow path stops allocating once
// warm. stats.FastReleases/SlowReleases count which path each transaction
// took.
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
// read set does; re-validating a duplicate is harmless too.
type txLogs struct {
	nRead, nWrite, nUndo int

	readInl  [inlineLog]uint32
	writeInl [inlineLog]uint32
	undoInl  [inlineLog]undoEnt

	readSpill  []uint32
	writeSpill []uint32
	undoSpill  []undoEnt
}

// reset empties the logs, retaining spill storage.
func (l *txLogs) reset() {
	l.nRead, l.nWrite, l.nUndo = 0, 0, 0
	l.readSpill = l.readSpill[:0]
	l.writeSpill = l.writeSpill[:0]
	l.undoSpill = l.undoSpill[:0]
}

// inline reports whether the whole footprint stayed within the inline
// arrays — the fast-release criterion.
func (l *txLogs) inline() bool {
	return l.nRead <= inlineLog && l.nWrite <= inlineLog && l.nUndo <= inlineLog
}

func (l *txLogs) appendRead(b uint32) {
	if l.nRead < inlineLog {
		l.readInl[l.nRead] = b
	} else {
		l.readSpill = append(l.readSpill, b)
	}
	l.nRead++
}

func (l *txLogs) readAt(i int) uint32 {
	if i < inlineLog {
		return l.readInl[i]
	}
	return l.readSpill[i-inlineLog]
}

func (l *txLogs) appendWrite(b uint32) {
	if l.nWrite < inlineLog {
		l.writeInl[l.nWrite] = b
	} else {
		l.writeSpill = append(l.writeSpill, b)
	}
	l.nWrite++
}

func (l *txLogs) writeAt(i int) uint32 {
	if i < inlineLog {
		return l.writeInl[i]
	}
	return l.writeSpill[i-inlineLog]
}

// appendUndo records the pre-image of data word a for abort replay: the log
// step of a write path's claim, log, store order, which the rollback tests
// (TestErrorRollsBack, TestMaxAttemptsSurfacesErrAborted) pin.
func (l *txLogs) appendUndo(a Addr, old uint64) {
	if l.nUndo < inlineLog {
		l.undoInl[l.nUndo] = undoEnt{addr: a, old: old}
	} else {
		l.undoSpill = append(l.undoSpill, undoEnt{addr: a, old: old})
	}
	l.nUndo++
}

func (l *txLogs) undoAt(i int) undoEnt {
	if i < inlineLog {
		return l.undoInl[i]
	}
	return l.undoSpill[i-inlineLog]
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
