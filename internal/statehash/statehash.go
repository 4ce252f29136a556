// Package statehash provides the streaming 64-bit FNV-1a hash the schedule
// explorer uses to fingerprint simulated machine state. It is dependency-free
// so every simulation package (mem, cache, coherence, tmlog, htm, core, sim)
// can expose a FingerprintTo method without import cycles.
//
// The hash is not cryptographic; it is a cheap, deterministic summary used
// for state-equality pruning. Callers must feed fields in a fixed order and
// must never feed map iterations directly (collect-then-sort first), so that
// equal logical states always produce equal sums.
package statehash

// FNV-1a 64-bit parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is a streaming FNV-1a 64-bit hash. The zero value is not ready; use
// New so every fingerprint starts from the standard offset basis.
type Hash struct {
	sum uint64
}

// New returns a hash initialized with the FNV-1a offset basis.
func New() *Hash {
	return &Hash{sum: offset64}
}

// Sum returns the current hash value.
func (h *Hash) Sum() uint64 { return h.sum }

// U64 mixes an unsigned 64-bit value, one byte at a time (FNV-1a order).
func (h *Hash) U64(v uint64) {
	s := h.sum
	for i := 0; i < 8; i++ {
		s ^= v & 0xff
		s *= prime64
		v >>= 8
	}
	h.sum = s
}

// U32 mixes an unsigned 32-bit value.
func (h *Hash) U32(v uint32) { h.U64(uint64(v)) }

// U16 mixes an unsigned 16-bit value.
func (h *Hash) U16(v uint16) { h.U64(uint64(v)) }

// Int mixes a signed integer (two's-complement widened to 64 bits, so -1
// and ^uint64(0) collide only with each other).
func (h *Hash) Int(v int) { h.U64(uint64(int64(v))) }

// Bool mixes a boolean as one byte.
func (h *Hash) Bool(v bool) {
	if v {
		h.U64(1)
	} else {
		h.U64(0)
	}
}

// Str mixes a string length-prefixed, so ("ab","c") and ("a","bc") differ.
func (h *Hash) Str(s string) {
	h.Int(len(s))
	sum := h.sum
	for i := 0; i < len(s); i++ {
		sum ^= uint64(s[i])
		sum *= prime64
	}
	h.sum = sum
}

// Mark mixes a small structural tag, separating adjacent variable-length
// sections of a fingerprint (the same role as Str's length prefix).
func (h *Hash) Mark(tag uint64) { h.U64(tag) }
