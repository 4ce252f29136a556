package mem

import (
	"sort"

	"tokentm/internal/statehash"
)

// FingerprintTo mixes the store's content in ascending address order. Only
// non-zero words are state (zero is the implicit value of untouched memory),
// so two stores with equal readable content always hash equal.
func (s *Store) FingerprintTo(h *statehash.Hash) {
	keys := make([]Addr, 0, len(s.words))
	for k := range s.words {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h.Int(len(s.words))
	for _, w := range keys {
		h.U64(uint64(w * WordBytes))
		h.U64(s.words[w])
	}
}
