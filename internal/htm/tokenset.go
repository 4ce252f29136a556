package htm

import (
	"tokentm/internal/mem"
)

// TokenSet indexes a transaction's token balance per block. It pairs the
// count map with a block list kept sorted by construction, so commit and
// abort handlers walk blocks in ascending block order with no sort at
// release time — part of the simulator's determinism contract: the order of
// simulated memory accesses (and therefore LRU state and cycle totals) must
// never depend on Go map iteration order.
//
// Reset retains both the map and the list storage, making repeated
// transaction attempts allocation-free after the first.
type TokenSet struct {
	counts map[mem.BlockAddr]uint32
	blocks []mem.BlockAddr // the keys of counts, sorted ascending
}

// Get returns the tokens held on block b (0 when untouched).
func (s *TokenSet) Get(b mem.BlockAddr) uint32 { return s.counts[b] }

// Len returns the number of blocks with tokens.
func (s *TokenSet) Len() int { return len(s.blocks) }

// Add credits n more tokens on block b, inserting b into the sorted block
// list on first touch. Adding 0 to an untouched block is a no-op (the block
// does not join the release walk). The insertion search is hand-rolled: a
// sort.Search closure is an allocating construct on this per-token path.
func (s *TokenSet) Add(b mem.BlockAddr, n uint32) {
	if _, ok := s.counts[b]; !ok {
		if n == 0 {
			return
		}
		if s.counts == nil {
			// First touch creates the count map; Reset retains it for every
			// later attempt.
			s.counts = make(map[mem.BlockAddr]uint32)
		}
		lo, hi := 0, len(s.blocks)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.blocks[mid] < b {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s.blocks = append(s.blocks, 0)
		copy(s.blocks[lo+1:], s.blocks[lo:])
		s.blocks[lo] = b
	}
	s.counts[b] += n
}

// Blocks returns the blocks holding tokens in ascending order — the release
// walk order. The slice aliases internal state; callers must not retain it
// across Add or Reset.
func (s *TokenSet) Blocks() []mem.BlockAddr { return s.blocks }

// Visit calls fn for every (block, tokens) pair in ascending block order.
func (s *TokenSet) Visit(fn func(b mem.BlockAddr, tokens uint32)) {
	for _, b := range s.blocks {
		fn(b, s.counts[b])
	}
}

// Reset empties the set, retaining storage for the next attempt.
func (s *TokenSet) Reset() {
	clear(s.counts)
	s.blocks = s.blocks[:0]
}
