package cache

import (
	"sort"

	"tokentm/internal/statehash"
)

// FingerprintTo mixes the cache's logical content: per set, the valid lines
// sorted by block address with their coherence state and metabits.
//
// The LRU timestamps (Line.used, the global tick) and the physical way a
// line occupies are deliberately excluded: they are replacement-policy
// state, invisible to the protocol until an eviction consults them. Two
// schedules that touched the same blocks in different orders therefore merge
// — which is sound exactly while no replacement eviction occurs. The
// explorer guards that assumption by checking the memory system's eviction
// count stays zero for its (deliberately tiny) programs.
func (c *Cache) FingerprintTo(h *statehash.Hash) {
	scratch := make([]Line, 0, 8)
	for si, slot := range c.slots {
		if slot == 0 {
			continue
		}
		s := c.lines(slot)
		scratch = scratch[:0]
		for i := range s {
			if s[i].State != Invalid {
				scratch = append(scratch, s[i])
			}
		}
		if len(scratch) == 0 {
			continue
		}
		sort.Slice(scratch, func(i, j int) bool { return scratch[i].Block < scratch[j].Block })
		h.Mark('S')
		h.Int(si)
		h.Int(len(scratch))
		for _, l := range scratch {
			h.U64(uint64(l.Block))
			h.U64(uint64(l.State))
			l.Meta.FingerprintTo(h)
		}
	}
}
