package coherence

import (
	"sort"

	"tokentm/internal/mem"
	"tokentm/internal/statehash"
)

// FingerprintTo mixes the memory system's logical state: the directory (in
// ascending block order, skipping entries with no copies — the directory
// keeps an entry for every block ever accessed, and an emptied one must not
// distinguish states) and every cache's content. Stats are measurement, not
// state, and are excluded.
func (m *MemSys) FingerprintTo(h *statehash.Hash) {
	keys := make([]mem.BlockAddr, 0, len(m.dir))
	for k := range m.dir {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h.Mark('D')
	for _, b := range keys {
		e := m.at(m.dir[b])
		if e.sharers == 0 && e.owner < 0 {
			continue // emptied entry: not state
		}
		h.U64(uint64(b))
		h.U32(e.sharers)
		h.Int(int(e.owner))
	}
	h.Mark('d')
	for i, c := range m.L1s {
		h.Mark('1')
		h.Int(i)
		c.FingerprintTo(h)
	}
	for i, c := range m.l2banks {
		h.Mark('2')
		h.Int(i)
		c.FingerprintTo(h)
	}
}
