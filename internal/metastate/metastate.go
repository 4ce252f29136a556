// Package metastate implements TokenTM's per-block logical metastate: the
// (Sum, TID) summary of token debits, the common transitions (paper Table 2:
// AcquireRead, ClaimWrite, Release), the metastate fission/fusion rules
// (Tables 3a and 3b), the in-memory 16-metabit packing (Table 4a) with its
// packed transitions (AddReader, ClaimWrite, DropReader), and the in-L1
// sparse R/W/R'/W'/R+ representation with flash-clear and flash-OR semantics
// (Table 4b, §4.4).
//
// It is the one place a Table 2 transition is computed: the simulator
// (internal/core) runs the Meta and L1Meta forms, the host STM (stm) the
// packed ones, and TestPackedTransitionsMatchMeta holds every packed
// transition equal to Unpack, the Meta rule, then Pack.
//
// Conceptually every 64-byte block has T tokens. A transaction acquires one
// token to read the block and all T tokens to write it. The metastate
// summarizes the full per-thread debit vector <c0, c1, ...> as a 2-tuple
// (Sum, TID): Sum is the total debit and TID identifies an owner only when
// Sum is 1 or T.
package metastate

import (
	"errors"
	"fmt"

	"tokentm/internal/mem"
)

// T is the number of tokens associated with every memory block. The paper
// leaves T as "some large constant"; it must merely exceed the maximum
// number of concurrent readers of one block. We use 2^16.
const T uint32 = 1 << 16

// Meta is the logical metastate summary (Sum, TID) for one block copy.
//
// Invariants (checked by Valid):
//   - Sum <= T
//   - if TID != NoTID then Sum == 1 (single identified reader) or Sum == T
//     (identified writer)
//   - if Sum == T then TID != NoTID (a writer is always identified)
//
// An anonymous summary (Sum, NoTID) arises when multiple readers' debits
// have been fused, or after a partial release (Table 2: (v,-) -> (v-1,-)).
type Meta struct {
	Sum uint32
	TID mem.TID
}

// Zero is the transactionally-inactive metastate (0, -).
var Zero = Meta{}

// Read1 returns the metastate of a single identified reader: (1, X).
func Read1(x mem.TID) Meta { return Meta{Sum: 1, TID: x} }

// WriteT returns the metastate of an identified writer: (T, X).
func WriteT(x mem.TID) Meta { return Meta{Sum: T, TID: x} }

// Anon returns an anonymous reader-count metastate: (v, -).
func Anon(v uint32) Meta { return Meta{Sum: v} }

// IsZero reports whether no tokens are debited: (0, -).
func (m Meta) IsZero() bool { return m.Sum == 0 }

// IsWriter reports whether all T tokens are debited: (T, X).
func (m Meta) IsWriter() bool { return m.Sum == T }

// IsIdentified reports whether the TID field names the owner.
func (m Meta) IsIdentified() bool { return m.TID != mem.NoTID && (m.Sum == 1 || m.Sum == T) }

// Valid reports whether m satisfies the representation invariants.
func (m Meta) Valid() bool {
	if m.Sum > T {
		return false
	}
	if m.TID != mem.NoTID && m.Sum != 1 && m.Sum != T {
		return false
	}
	if m.Sum == T && m.TID == mem.NoTID {
		return false
	}
	return true
}

// String renders m in the paper's tuple notation, e.g. "(0,-)", "(1,X7)",
// "(T,X3)", "(u=4,-)".
func (m Meta) String() string {
	switch {
	case m.Sum == 0:
		return "(0,-)"
	case m.Sum == T:
		return fmt.Sprintf("(T,X%d)", m.TID)
	case m.TID != mem.NoTID:
		return fmt.Sprintf("(1,X%d)", m.TID)
	default:
		return fmt.Sprintf("(u=%d,-)", m.Sum)
	}
}

// ErrFuse is returned when two metastate copies may not legally coexist,
// e.g. a transactional writer (T,X) fused with an anonymous reader count.
// These are the "error" cells of Table 3b; encountering one indicates a
// violated single-writer/multiple-reader invariant.
var ErrFuse = errors.New("metastate: illegal fusion")

// Fission splits metastate m when the coherence protocol creates an
// additional shared copy of the block (Table 3a). It returns the metastate
// retained by the source copy and the metastate initialized on the new copy.
//
//	Before   After    New Copy
//	(u,-)    (u,-)    (0,-)
//	(1,X)    (1,X)    (0,-)
//	(T,X)    (T,X)    (T,X)
//
// A writer's (T,X) replicates onto every copy so that any reader can detect
// the conflict locally; reader counts stay at the source, because readers
// need not know about other readers.
func Fission(m Meta) (kept, newCopy Meta) {
	if m.IsWriter() {
		return m, m
	}
	return m, Zero
}

// Fuse merges the metastate of two copies of a block into one (Table 3b).
// It returns ErrFuse for the table's error cells.
//
//	           (u,-)              (1,Y)             (T,Y)
//	(v,-)      (u+v,-)            (1,Y) if v=0      (T,Y) if v=0
//	                              (v+1,-) if v>0    else error
//	(1,X)      (1,X) if u=0       (2,-)             error
//	           (u+1,-) if u>0
//	(T,X)      (T,X) if u=0       error             (T,X) if X=Y
//	           else error                           else error
func Fuse(a, b Meta) (Meta, error) {
	// Normalize: treat an anonymous single count (1,-) like any (v,-).
	aw, bw := a.IsWriter(), b.IsWriter()
	switch {
	case aw && bw:
		if a.TID == b.TID {
			return a, nil
		}
		return Zero, fmt.Errorf("%w: two writers %v and %v", ErrFuse, a, b)
	case aw:
		if b.Sum == 0 {
			return a, nil
		}
		return Zero, fmt.Errorf("%w: writer %v with readers %v", ErrFuse, a, b)
	case bw:
		if a.Sum == 0 {
			return b, nil
		}
		return Zero, fmt.Errorf("%w: writer %v with readers %v", ErrFuse, b, a)
	}
	// Both are reader-side summaries. Fusing with a zero copy preserves
	// identity; otherwise identity is lost and only the count remains.
	if a.Sum == 0 {
		return b, nil
	}
	if b.Sum == 0 {
		return a, nil
	}
	sum := a.Sum + b.Sum
	if sum > T {
		return Zero, fmt.Errorf("%w: fused reader count %d exceeds T", ErrFuse, sum)
	}
	return Anon(sum), nil
}

// ClaimWrite is Table 2's Store row for thread x, which holds mine of the
// block's tokens already: every other debit must be x's own, so (0,-) and a
// (v,-) with v <= mine become (T,X) and x needs T-mine more tokens — the
// second case is §5.2's "the anonymous count is all mine", which the
// contention manager resolves in software. (1,X) with mine >= 1 is an
// upgrade, and (T,X) is already x's and needs none. A foreign writer, a
// count above mine or an identified reader other than x refuses (the
// Conflicting Store rows), returning m unchanged.
func ClaimWrite(m Meta, x mem.TID, mine uint32) (next Meta, needed uint32, ok bool) {
	switch {
	case m.IsWriter():
		return m, 0, m.TID == x
	case m.TID != mem.NoTID && m.TID != x, m.Sum > mine:
		return m, 0, false
	}
	return WriteT(x), T - mine, true
}

// Release credits up to n of thread x's tokens back to m (Table 2's Release
// rows) and reports how many it took: (T,X) -> (0,-) when n is T, (1,X) ->
// (0,-), and (v,-) -> (v-k,-) with k = min(v, n), since anonymous tokens are
// fungible. Anything else takes nothing and returns m unchanged.
func Release(m Meta, x mem.TID, n uint32) (next Meta, taken uint32) {
	switch {
	case m.IsWriter():
		if m.TID == x && n == T {
			return Zero, T
		}
	case m.TID != mem.NoTID:
		if m.TID == x && n > 0 {
			return Zero, 1
		}
	default:
		k := min(m.Sum, n)
		return Anon(m.Sum - k), k
	}
	return m, 0
}
