package metastate

import (
	"fmt"

	"tokentm/internal/mem"
)

// Packed is the in-memory representation of a block's metastate: 16
// "metabits" per 64-byte block (Table 4a). The top two bits encode the
// state, the low 14 bits the attribute:
//
//	Metastate    State   Attr
//	(u,-)        00      u       (anonymous reader count)
//	(1,X)        01      X       (identified single reader)
//	(T,X)        10      X       (identified writer)
//	overflow     11      -       (count maintained by software, §4.3)
//
// The overflow state implements the paper's LimitLESS-style escape for the
// rare case of more concurrent readers than the 14-bit count can represent;
// the true count then lives in a software OverflowTable.
type Packed uint16

// PackedState is the 2-bit state field of the packed representation — a
// named enum type so switches over it fall under TestExhaustiveSwitches:
// every summary state must have a defined transition (Tables 3a/3b, 4a).
type PackedState uint16

// Packed state field values.
const (
	StateAnon     PackedState = 0 // (u,-)
	StateRead1    PackedState = 1 // (1,X)
	StateWriteT   PackedState = 2 // (T,X)
	StateOverflow PackedState = 3 // software-maintained count
)

// attrMask selects the 14-bit attribute field.
const attrMask = 1<<14 - 1

// maxPackedCount is the largest anonymous count representable in Attr.
const maxPackedCount = attrMask

// PackedZero is the packed form of (0,-).
const PackedZero Packed = 0

func packedOf(state PackedState, attr uint16) Packed {
	return Packed(uint16(state)<<14 | attr&attrMask)
}

// State returns the 2-bit state field.
func (p Packed) State() PackedState { return PackedState(p >> 14) }

// Attr returns the 14-bit attribute field.
func (p Packed) Attr() uint16 { return uint16(p) & attrMask }

// IsOverflow reports whether the count lives in a software table.
func (p Packed) IsOverflow() bool { return p.State() == StateOverflow }

// Pack encodes m into 16 metabits. If the anonymous count exceeds the 14-bit
// field, Pack returns the overflow encoding and overflow=true; the caller
// must then record the true count in an OverflowTable.
func Pack(m Meta) (p Packed, overflow bool) {
	switch {
	case m.Sum == 0:
		return PackedZero, false
	case m.IsWriter():
		return packedOf(StateWriteT, uint16(m.TID)), false
	case m.Sum == 1 && m.TID != mem.NoTID:
		return packedOf(StateRead1, uint16(m.TID)), false
	case m.Sum <= maxPackedCount:
		return packedOf(StateAnon, uint16(m.Sum)), false
	default:
		return packedOf(StateOverflow, 0), true
	}
}

// The packed transitions are Table 2 computed on the 16 metabits directly,
// for the host STM's CAS loops: each returns the next word and true, or p
// unchanged and false when it refuses. Each equals Unpack, the Meta rule
// named below, then Pack, with a Pack that would need the overflow escape
// refused (TestPackedTransitionsMatchMeta checks every canonical word).

// AddReader is Fuse(m, Read1(x)), Table 2's Load row: (0,-) -> (1,X); a
// second reader fuses (1,Y) into (2,-), and further readers count up to the
// 14-bit limit. A writer, or a count already at the limit, refuses.
func (p Packed) AddReader(x mem.TID) (Packed, bool) {
	switch p.State() {
	case StateAnon:
		switch p.Attr() {
		case 0:
			return packedOf(StateRead1, uint16(x)), true
		case maxPackedCount:
			return p, false
		}
		return p + 1, true
	case StateRead1:
		return packedOf(StateAnon, 2), true
	case StateWriteT, StateOverflow:
	}
	return p, false
}

// ClaimWrite is the Meta ClaimWrite: all T tokens for x, which holds mine
// (0 or 1) of them already. (0,-), (1,-) when mine is 1, (1,X) when mine is
// 1 and (T,X) become (T,X); anything else refuses.
func (p Packed) ClaimWrite(x mem.TID, mine uint32) (Packed, bool) {
	switch p.State() {
	case StateAnon:
		if uint32(p.Attr()) > mine {
			return p, false
		}
	case StateRead1:
		if mem.TID(p.Attr()) != x || mine == 0 {
			return p, false
		}
	case StateWriteT:
		if mem.TID(p.Attr()) != x {
			return p, false
		}
	case StateOverflow:
		return p, false
	}
	return packedOf(StateWriteT, uint16(x)), true
}

// DropReader is Release(m, x, 1), Table 2's "Release one Token" row:
// (1,X) -> (0,-) and (v,-) -> (v-1,-). Anything else refuses, (T,X)
// included: a writer returns all T tokens at once.
func (p Packed) DropReader(x mem.TID) (Packed, bool) {
	switch p.State() {
	case StateAnon:
		if p.Attr() != 0 {
			return p - 1, true
		}
	case StateRead1:
		if mem.TID(p.Attr()) == x {
			return PackedZero, true
		}
	case StateWriteT, StateOverflow:
	}
	return p, false
}

// Unpack decodes 16 metabits into a logical metastate. For the overflow
// encoding the caller supplies the software-maintained count via table
// (may be nil only if p is not overflow).
func Unpack(p Packed, table *OverflowTable, b mem.BlockAddr) (Meta, error) {
	switch p.State() {
	case StateAnon:
		return Anon(uint32(p.Attr())), nil
	case StateRead1:
		return Read1(mem.TID(p.Attr())), nil
	case StateWriteT:
		return WriteT(mem.TID(p.Attr())), nil
	default: // StateOverflow
		if table == nil {
			return Zero, fmt.Errorf("metastate: overflow encoding for %v with no software table", b)
		}
		n, ok := table.Count(b)
		if !ok {
			return Zero, fmt.Errorf("metastate: overflow encoding for %v missing from software table", b)
		}
		return Anon(n), nil
	}
}

// OverflowTable is the software side of the LimitLESS-style overflow scheme:
// when a block's anonymous reader count exceeds the 14-bit hardware field,
// the hardware switches the block to the overflow state and software keeps
// the exact count here.
type OverflowTable struct {
	counts map[mem.BlockAddr]uint32
}

// NewOverflowTable returns an empty overflow table.
func NewOverflowTable() *OverflowTable {
	return &OverflowTable{counts: make(map[mem.BlockAddr]uint32)}
}

// Count returns the software-maintained count for block b.
func (t *OverflowTable) Count(b mem.BlockAddr) (uint32, bool) {
	n, ok := t.counts[b]
	return n, ok
}

// Set records the count for block b; a zero count removes the entry.
func (t *OverflowTable) Set(b mem.BlockAddr, n uint32) {
	if n == 0 {
		delete(t.counts, b)
		return
	}
	t.counts[b] = n
}

// Len returns the number of overflowed blocks.
func (t *OverflowTable) Len() int { return len(t.counts) }

// PackInto packs m for block b, spilling to the overflow table when needed
// and cleaning up a previous overflow entry when no longer needed.
func (t *OverflowTable) PackInto(b mem.BlockAddr, m Meta) Packed {
	p, over := Pack(m)
	if over {
		t.Set(b, m.Sum)
	} else {
		t.Set(b, 0)
	}
	return p
}
