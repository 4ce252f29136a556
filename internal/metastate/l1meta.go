package metastate

import (
	"fmt"

	"tokentm/internal/mem"
)

// L1Meta is the in-cache sparse metabit representation (Table 4b). It
// replaces the 2-bit in-memory state field with five bits so that tokens
// acquired by the thread currently running on this core (R, W) can be
// distinguished from tokens of other threads (R', W') and anonymous counts
// (R+). This distinction is what makes fast token release — a flash clear of
// the R and W columns — safe.
//
//	Metastate   R  W  R' W' R+  Attr
//	(0,-)       0  0  0  0  0   -
//	(u,-)       1  0  0  0  1   u-1    (one of the u tokens is mine)
//	(u,-)       0  0  0  0  1   u      (none of the u tokens is mine)
//	(1,X)       1  0  0  0  0   X      (X runs on this core)
//	(1,Y)       0  0  1  0  0   Y
//	(T,X)       0  1  0  0  0   X
//	(T,Y)       0  0  0  1  0   Y
//
// After a context-switch flash-OR, R' and R+ may both be set temporarily;
// the combination is refused on the next access (§4.4).
type L1Meta struct {
	R, W, Rp, Wp, RPlus bool
	Attr                uint16
}

// L1Zero is the (0,-) in-cache metastate.
var L1Zero = L1Meta{}

// IsZero reports whether no metabits are set.
func (l L1Meta) IsZero() bool { return l == L1Zero }

// Logical reconstructs the (Sum, TID) summary this representation encodes.
func (l L1Meta) Logical() Meta {
	switch {
	case l.W:
		return WriteT(mem.TID(l.Attr))
	case l.Wp:
		return WriteT(mem.TID(l.Attr))
	case l.RPlus:
		sum := uint32(l.Attr)
		if l.R {
			sum++
		}
		if l.Rp {
			sum++
		}
		return Anon(sum)
	case l.R:
		return Read1(mem.TID(l.Attr))
	case l.Rp:
		return Read1(mem.TID(l.Attr))
	default:
		return Zero
	}
}

// Valid reports whether the bit combination is representable: W excludes
// everything else, W' likewise, and R and R' are mutually exclusive.
func (l L1Meta) Valid() bool {
	if l.W {
		return !l.R && !l.Rp && !l.Wp && !l.RPlus
	}
	if l.Wp {
		return !l.R && !l.Rp && !l.RPlus
	}
	if l.R && l.Rp {
		return false
	}
	return true
}

// L1FromMeta initializes a line's metabits from the metastate delivered with
// a data fill (the "New Copy" column of a fission, or a fused exclusive
// copy), given the TID of the thread running on this core.
func L1FromMeta(m Meta, cur mem.TID) (L1Meta, error) {
	switch {
	case m.IsZero():
		return L1Zero, nil
	case m.IsWriter():
		if m.TID == cur {
			return L1Meta{W: true, Attr: uint16(m.TID)}, nil
		}
		return L1Meta{Wp: true, Attr: uint16(m.TID)}, nil
	case m.Sum == 1 && m.TID != mem.NoTID:
		if m.TID == cur {
			return L1Meta{R: true, Attr: uint16(m.TID)}, nil
		}
		return L1Meta{Rp: true, Attr: uint16(m.TID)}, nil
	default:
		if m.Sum > maxPackedCount {
			return L1Zero, fmt.Errorf("metastate: in-cache count %d overflows Attr", m.Sum)
		}
		return L1Meta{RPlus: true, Attr: uint16(m.Sum)}, nil
	}
}

// FlashClearRW implements fast token release's constant-time flash clear: the
// R and W columns are zeroed across the whole cache, returning every line the
// current thread touched (and that stayed resident) to its pre-transaction
// metastate (§4.4, Figure 4d).
func (l *L1Meta) FlashClearRW() {
	l.R = false
	l.W = false
}

// FlashOR implements the constant-time context-switch operation: R' = R'|R,
// clear R; W' = W'|W, clear W. The departing thread's tokens become "some
// thread Y's" tokens; the incoming thread gets fresh R/W columns (§4.4).
func (l *L1Meta) FlashOR() {
	l.Rp = l.Rp || l.R
	l.R = false
	l.Wp = l.Wp || l.W
	l.W = false
}

// AcquireResult describes the outcome of attempting a transactional read
// against a line's metabits.
type AcquireResult struct {
	// OK is true when the access may proceed.
	OK bool
	// TokensAcquired is the number of tokens newly debited (0 or 1); a
	// nonzero value must be credited to the thread's log.
	TokensAcquired uint32
	// ConflictWith summarizes the conflicting metastate when !OK: the
	// (T,Y) of the writer whose TID identifies the enemy transaction.
	ConflictWith Meta
}

// AcquireRead attempts to add the block to thread cur's read set by
// examining and updating the line's metabits (§4.2 cases (a)-(c), plus the
// R'-refusion rules of §4.4).
func (l *L1Meta) AcquireRead(cur mem.TID) AcquireResult {
	switch {
	case l.W:
		// Already hold all T tokens; reads need no further action.
		return AcquireResult{OK: true}
	case l.Wp:
		if mem.TID(l.Attr) == cur {
			// My own write tokens from before a context switch: refuse.
			l.Wp = false
			l.W = true
			return AcquireResult{OK: true}
		}
		return AcquireResult{ConflictWith: WriteT(mem.TID(l.Attr))}
	case l.R:
		// Already hold a read token.
		return AcquireResult{OK: true}
	case l.Rp:
		if !l.RPlus && mem.TID(l.Attr) == cur {
			// Rule (i): my own token from before a context switch.
			l.Rp = false
			l.R = true
			return AcquireResult{OK: true}
		}
		// Rule (ii): fold the R' token into the anonymous count, then
		// acquire my own token.
		l.Rp = false
		if l.RPlus {
			l.Attr++
		} else {
			l.RPlus = true
			l.Attr = 1
		}
		l.R = true
		return AcquireResult{OK: true, TokensAcquired: 1}
	case l.RPlus:
		// Other transactions hold tokens; readers coexist. Attr keeps
		// counting the others.
		l.R = true
		return AcquireResult{OK: true, TokensAcquired: 1}
	default:
		l.R = true
		l.Attr = uint16(cur)
		return AcquireResult{OK: true, TokensAcquired: 1}
	}
}

// Release credits up to n of thread cur's tokens back from the line and
// reports how many it took; the rest are the home metastate's to return
// (Release). n == T is a writer's release: W, or a W' carrying cur's TID
// after a context switch, clears. Otherwise R goes first, else cur's own
// R' when no anonymous count hides its TID, then the anonymous R+ count
// (with an R' under it as one more anonymous token) — anonymous tokens are
// fungible, so taking greedily keeps the double-entry books balanced.
func (l *L1Meta) Release(cur mem.TID, n uint32) (taken uint32) {
	if n == T {
		if l.W || (l.Wp && mem.TID(l.Attr) == cur) {
			l.W = false
			l.Wp = false
			return T
		}
		return 0
	}
	remaining := n
	if remaining > 0 {
		if l.R {
			l.R = false
			remaining--
		} else if l.Rp && !l.RPlus && mem.TID(l.Attr) == cur {
			l.Rp = false
			remaining--
		}
		if remaining > 0 && l.RPlus {
			take := remaining
			if uint32(l.Attr) < take {
				take = uint32(l.Attr)
			}
			l.Attr -= uint16(take)
			remaining -= take
			// An R' bit under R+ is one more anonymous token (Logical
			// counts it); R+ may go only once no anonymous token is left.
			if remaining > 0 && l.Rp {
				l.Rp = false
				remaining--
			}
			if l.Attr == 0 && !l.Rp {
				l.RPlus = false
			}
		}
	}
	return n - remaining
}

// String renders the metabits for debugging, e.g. "[R attr=42]".
func (l L1Meta) String() string {
	s := "["
	if l.R {
		s += "R "
	}
	if l.W {
		s += "W "
	}
	if l.Rp {
		s += "R' "
	}
	if l.Wp {
		s += "W' "
	}
	if l.RPlus {
		s += "R+ "
	}
	if s == "[" {
		s += "0 "
	}
	return fmt.Sprintf("%sattr=%d]", s, l.Attr)
}
