package htm

import (
	"sort"

	"tokentm/internal/mem"
	"tokentm/internal/statehash"
)

// Fingerprinter is implemented by HTM systems (and other simulation
// components) whose internal state must join the machine fingerprint the
// schedule explorer uses for state-equality pruning. Implementations feed
// fields in a fixed order and must sort any map-derived sequence first, so
// logically equal states always hash equal.
type Fingerprinter interface {
	FingerprintTo(h *statehash.Hash)
}

// FingerprintTo mixes the transaction state that can influence future
// behavior: identity, priority, conflict flags, the token index, and the
// exact read/write sets. The metrics-only LogStall accumulator and
// per-attempt abort attribution are deliberately excluded — they never feed back into protocol decisions,
// and excluding them lets schedules that merely accounted differently merge.
func (x *Xact) FingerprintTo(h *statehash.Hash) {
	h.Mark('X')
	h.U16(uint16(x.TID))
	h.Int(x.Core)
	h.U64(uint64(x.Timestamp))
	h.Bool(x.Active)
	h.Bool(x.AbortRequested)
	h.Bool(x.Stalling)
	h.Bool(x.FastOK)
	h.U64(uint64(x.BeginTime))
	h.Int(x.Attempts)
	x.Tokens.FingerprintTo(h)
	hashBlockSet(h, x.ReadSet)
	hashBlockSet(h, x.WriteSet)
}

// hashBlockSet mixes a block set in ascending order (collect-then-sort, per
// the determinism contract).
func hashBlockSet(h *statehash.Hash, set map[mem.BlockAddr]struct{}) {
	blocks := make([]mem.BlockAddr, 0, len(set))
	for b := range set {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	h.Int(len(blocks))
	for _, b := range blocks {
		h.U64(uint64(b))
	}
}

// FingerprintTo mixes the token index in ascending block order.
func (s *TokenSet) FingerprintTo(h *statehash.Hash) {
	h.Int(len(s.blocks))
	for _, b := range s.blocks {
		h.U64(uint64(b))
		h.U32(s.counts[b])
	}
}
