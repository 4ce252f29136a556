package tmlog

import "tokentm/internal/statehash"

// FingerprintTo mixes the log content in append order (record order is
// architectural: it fixes the abort unroll and release walk). The base
// address is a per-thread constant and is excluded.
func (l *Log) FingerprintTo(h *statehash.Hash) {
	h.Int(len(l.records))
	for _, r := range l.records {
		h.U64(uint64(r.Kind))
		h.U64(uint64(r.Block))
		h.U32(r.Tokens)
		if r.Kind == DataRecord {
			for _, w := range l.Old(r) {
				h.U64(w)
			}
		}
	}
}
