// Package sig implements the read/write-set signatures used by the
// LogTM-SE_2xH3 and LogTM-SE_4xH3 baselines (paper §2.2, Figure 1).
//
// A signature is a Bloom filter summarizing the set of blocks a transaction
// has read or written. LogTM-SE tests incoming coherence requests against
// these signatures; because Bloom filters admit false positives, unrelated
// transactions can be serialized, which is exactly the pathology TokenTM's
// precise tokens eliminate. Following Sanchez et al. (cited by the paper as
// the best-performing designs), the implementable variants use a single
// 2 Kbit SRAM array indexed by k parallel H3 hash functions. The exact
// LogTM-SE_Perf upper bound needs no filter: package logtmse answers it
// from an exact per-block index.
package sig

import (
	"math/bits"
	"math/rand"
	"sync"

	"tokentm/internal/mem"
)

// DefaultBits is the paper's signature size: 2 Kbit.
const DefaultBits = 2048

// H3 is one H₃-class universal hash function: each input bit of the block
// address selects a precomputed random row that is XORed into the output.
// H3 functions are popular in hardware because they reduce to an XOR tree.
//
// Hash evaluates byte-sliced: tbl[k][v] precomputes the XOR of the rows
// selected by byte value v at byte position k, so the three low bytes of
// the input cost three table lookups instead of a loop over their set bits.
// The output is bit-for-bit identical to the row-per-bit definition (XOR is
// associative; the tables just reassociate it), which the sig tests pin
// against the reference loop. Every row is masked below m ≤ 2^16, so the
// tables hold uint16s (1.5 KB per function). Every workload block is below
// 2^24, so tables for the five high bytes would never be read; a wider
// input folds in one row per set bit above bit 23, as hashRef does.
type H3 struct {
	rows [64]uint32
	mask uint32
	tbl  [tableBytes][256]uint16
}

// tableBytes is the number of low input bytes Hash looks up by table.
const tableBytes = 3

// maxBits is the widest H3 output the uint16 tables hold.
const maxBits = 1 << 16

// NewH3 builds an H3 function producing log2(m)-bit outputs, with rows drawn
// from rng so that parallel functions are independent. m is at most 2^16.
func NewH3(m int, rng *rand.Rand) *H3 {
	if m > maxBits {
		panic("sig: H3 outputs are at most 16 bits")
	}
	h := &H3{mask: uint32(m - 1)}
	for i := range h.rows {
		h.rows[i] = rng.Uint32() & h.mask
	}
	// Byte-slice tables by subset DP: v's XOR is (v minus its lowest set
	// bit)'s XOR plus that bit's row.
	for k := range h.tbl {
		for v := 1; v < 256; v++ {
			h.tbl[k][v] = h.tbl[k][v&(v-1)] ^ uint16(h.rows[k*8+bits.TrailingZeros64(uint64(v))])
		}
	}
	return h
}

// Hash maps a block address to a bit index in [0, m).
func (h *H3) Hash(b mem.BlockAddr) uint32 {
	x := uint64(b)
	out := uint32(h.tbl[0][x&0xff] ^
		h.tbl[1][x>>8&0xff] ^
		h.tbl[2][x>>16&0xff])
	for hi := x >> (8 * tableBytes); hi != 0; hi &= hi - 1 {
		out ^= h.rows[8*tableBytes+bits.TrailingZeros64(hi)]
	}
	return out
}

// hashRef is the row-per-bit reference implementation, kept for the
// equivalence test.
func (h *H3) hashRef(b mem.BlockAddr) uint32 {
	x := uint64(b)
	var out uint32
	for x != 0 {
		i := bits.TrailingZeros64(x)
		out ^= h.rows[i]
		x &= x - 1
	}
	return out & h.mask
}

// Bloom is a single-array Bloom-filter signature with k parallel H3 hash
// functions, as in LogTM-SE_2xH3 and LogTM-SE_4xH3.
type Bloom struct {
	words  []uint64
	hashes []*H3
	nbits  int
	nset   int
}

// h3Key identifies one deterministic hash-function family: NewBloom's rows
// are a pure function of (nbits, k, seed), so families can be shared.
type h3Key struct {
	nbits, k int
	seed     int64
}

// h3Cache interns hash families across Bloom instances. Seeds are derived
// from thread IDs, so a sweep re-creates the same few families for every
// machine; H3s are immutable after construction and safe to share.
var h3Cache sync.Map // h3Key -> []*H3

func hashFamily(nbits, k int, seed int64) []*H3 {
	key := h3Key{nbits, k, seed}
	if v, ok := h3Cache.Load(key); ok {
		return v.([]*H3)
	}
	rng := rand.New(rand.NewSource(seed))
	hs := make([]*H3, k)
	for i := range hs {
		hs[i] = NewH3(nbits, rng)
	}
	v, _ := h3Cache.LoadOrStore(key, hs)
	return v.([]*H3)
}

// NewBloom returns a Bloom signature with nbits bits (a power of two, at most
// 2^16) and k H3 hash functions seeded from seed.
func NewBloom(nbits, k int, seed int64) *Bloom {
	if nbits <= 0 || nbits&(nbits-1) != 0 || nbits > maxBits {
		panic("sig: nbits must be a power of two in [1, 2^16]")
	}
	return &Bloom{
		words:  make([]uint64, nbits/64),
		nbits:  nbits,
		hashes: hashFamily(nbits, k, seed),
	}
}

// Add inserts block b.
func (s *Bloom) Add(b mem.BlockAddr) {
	for _, h := range s.hashes {
		i := h.Hash(b)
		w, m := i/64, uint64(1)<<(i%64)
		if s.words[w]&m == 0 {
			s.words[w] |= m
			s.nset++
		}
	}
}

// Test reports whether b may be in the set.
func (s *Bloom) Test(b mem.BlockAddr) bool {
	if s.nset == 0 {
		// Empty filter: no probe can hit. Conflict checks walk every
		// in-flight thread's signatures, most of which are empty.
		return false
	}
	for _, h := range s.hashes {
		i := h.Hash(b)
		if s.words[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the signature.
func (s *Bloom) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.nset = 0
}

// Occupancy returns set bits / total bits.
func (s *Bloom) Occupancy() float64 {
	return float64(s.nset) / float64(s.nbits)
}

// Kind names a signature configuration.
type Kind int

// Signature configurations evaluated in the paper.
const (
	KindPerfect Kind = iota // exact tracking (unimplementable; no signature)
	Kind2xH3                // 2 Kbit Bloom, 2 H3 hashes
	Kind4xH3                // 2 Kbit Bloom, 4 H3 hashes
)

// String returns the paper's name for the configuration.
func (k Kind) String() string {
	switch k {
	case KindPerfect:
		return "Perf"
	case Kind2xH3:
		return "2xH3"
	case Kind4xH3:
		return "4xH3"
	default:
		return "unknown"
	}
}

// New builds a signature of the given Bloom kind; seed decorrelates the hash
// functions of different cores. KindPerfect has no signature.
func New(k Kind, seed int64) *Bloom {
	switch k {
	case Kind2xH3:
		return NewBloom(DefaultBits, 2, seed)
	case Kind4xH3:
		return NewBloom(DefaultBits, 4, seed)
	default:
		panic("sig: no signature for kind " + k.String())
	}
}
