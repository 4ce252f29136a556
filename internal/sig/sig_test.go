package sig

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"tokentm/internal/mem"
)

func TestNoFalseNegatives(t *testing.T) {
	f := func(blocks []uint32, seed int64) bool {
		s := NewBloom(DefaultBits, 4, seed)
		for _, b := range blocks {
			s.Add(mem.BlockAddr(b))
		}
		for _, b := range blocks {
			if !s.Test(mem.BlockAddr(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClear(t *testing.T) {
	s := NewBloom(DefaultBits, 2, 1)
	for i := 0; i < 100; i++ {
		s.Add(mem.BlockAddr(i * 977))
	}
	if s.Occupancy() == 0 {
		t.Fatal("occupancy should be nonzero after adds")
	}
	s.Clear()
	if s.Occupancy() != 0 {
		t.Fatal("occupancy should be zero after clear")
	}
	for i := 0; i < 100; i++ {
		if s.Test(mem.BlockAddr(i*977)) && i > 3 {
			t.Fatalf("block %d still present after clear", i)
		}
	}
}

// TestFalsePositiveRateGrowsWithSetSize checks the birthday-paradox effect
// the paper leans on (Zilles & Rajwar): bigger read/write sets mean more
// false positives.
func TestFalsePositiveRateGrowsWithSetSize(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	measure := func(setSize int) float64 {
		s := NewBloom(DefaultBits, 4, 5)
		members := make(map[mem.BlockAddr]bool)
		for i := 0; i < setSize; i++ {
			b := mem.BlockAddr(rng.Uint64() >> 20)
			s.Add(b)
			members[b] = true
		}
		fp := 0
		const probes = 20000
		for i := 0; i < probes; i++ {
			b := mem.BlockAddr(rng.Uint64() >> 20)
			if !members[b] && s.Test(b) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	small := measure(8)
	large := measure(512)
	if small > 0.01 {
		t.Errorf("small-set false positive rate too high: %f", small)
	}
	if large < 10*small {
		t.Errorf("large sets should alias much more: small=%f large=%f", small, large)
	}
}

// TestMoreHashesHelpSmallSets: with few elements, 4 hashes alias less than
// 2; with huge sets the filter saturates either way.
func TestMoreHashesHelpSmallSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	measure := func(k, setSize int) float64 {
		s := NewBloom(DefaultBits, k, 17)
		members := make(map[mem.BlockAddr]bool)
		for i := 0; i < setSize; i++ {
			b := mem.BlockAddr(rng.Uint64() >> 20)
			s.Add(b)
			members[b] = true
		}
		fp := 0
		const probes = 30000
		for i := 0; i < probes; i++ {
			b := mem.BlockAddr(rng.Uint64() >> 20)
			if !members[b] && s.Test(b) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	fp2 := measure(2, 64)
	fp4 := measure(4, 64)
	if fp4 > fp2 && fp4 > 0.001 {
		t.Errorf("4 hashes should beat 2 on small sets: k2=%f k4=%f", fp2, fp4)
	}
}

func TestH3Determinism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewH3(DefaultBits, rng)
	for i := 0; i < 100; i++ {
		b := mem.BlockAddr(i * 131071)
		if h.Hash(b) != h.Hash(b) {
			t.Fatal("H3 must be deterministic")
		}
		if h.Hash(b) >= DefaultBits {
			t.Fatal("H3 out of range")
		}
	}
}

func TestH3Linearity(t *testing.T) {
	// H3 is linear over GF(2): h(a^b) == h(a)^h(b).
	rng := rand.New(rand.NewSource(13))
	h := NewH3(DefaultBits, rng)
	f := func(a, b uint64) bool {
		return h.Hash(mem.BlockAddr(a^b)) == h.Hash(mem.BlockAddr(a))^h.Hash(mem.BlockAddr(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestH3Size: an H3 keeps byte tables for the three low input bytes only
// (1.5 KB); eight tables (4 KB) would exceed the bound. A 4xH3 sweep interns
// 256 of them.
func TestH3Size(t *testing.T) {
	if got := unsafe.Sizeof(H3{}); got > 2048 {
		t.Fatalf("H3 is %d B, want at most 2048", got)
	}
}

// TestH3ByteSlicedMatchesReference pins the table-driven Hash to the
// row-per-bit definition: the byte-slice tables are an optimization and must
// never change a single hash value (signature contents are modeled behavior).
// quick.Check's uniform inputs almost never fall below 2^24, where Hash
// skips the high bytes, so that range and every byte boundary are sampled
// explicitly, at the narrowest, the paper's and the widest output.
func TestH3ByteSlicedMatchesReference(t *testing.T) {
	for _, nbits := range []int{64, DefaultBits, 1 << 16} {
		rng := rand.New(rand.NewSource(7))
		h := NewH3(nbits, rng)
		check := func(b uint64) bool {
			return h.Hash(mem.BlockAddr(b)) == h.hashRef(mem.BlockAddr(b))
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("nbits %d: %v", nbits, err)
		}
		low := func(b uint32) bool { return check(uint64(b) & (1<<24 - 1)) }
		if err := quick.Check(low, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("nbits %d, below 2^24: %v", nbits, err)
		}
		edges := []uint64{0, 1, 1 << 63, ^uint64(0)}
		for k := uint(8); k < 64; k += 8 {
			edges = append(edges, 1<<k-1, 1<<k, 1<<k+1)
		}
		for _, b := range edges {
			if !check(b) {
				t.Fatalf("nbits %d: byte-sliced hash diverges at %#x", nbits, b)
			}
		}
	}
}

// TestHashFamilyInterned checks that NewBloom reuses one hash family per
// (nbits, k, seed) and that interning does not change the drawn rows.
func TestHashFamilyInterned(t *testing.T) {
	a := NewBloom(DefaultBits, 4, 21)
	b := NewBloom(DefaultBits, 4, 21)
	if len(a.hashes) != 4 || len(b.hashes) != 4 {
		t.Fatalf("want 4 hashes, got %d and %d", len(a.hashes), len(b.hashes))
	}
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] {
			t.Fatal("same (nbits, k, seed) must share one interned hash family")
		}
	}
	// The interned rows must match a fresh draw from the same seed.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		fresh := NewH3(DefaultBits, rng)
		if fresh.rows != a.hashes[i].rows {
			t.Fatalf("interned hash %d rows diverge from a fresh draw", i)
		}
	}
	if c := NewBloom(DefaultBits, 2, 21); c.hashes[0] == a.hashes[0] {
		t.Fatal("different k must not share a family: draw sequences differ")
	}
}

func TestKinds(t *testing.T) {
	if KindPerfect.String() != "Perf" || Kind2xH3.String() != "2xH3" || Kind4xH3.String() != "4xH3" {
		t.Fatal("kind names")
	}
	if Kind(42).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
	for _, k := range []Kind{Kind2xH3, Kind4xH3} {
		s := New(k, 3)
		s.Add(77)
		if !s.Test(77) {
			t.Fatalf("%v: missing member", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Perf has no signature: New must panic")
		}
	}()
	New(KindPerfect, 3)
}

func TestNewBloomPanics(t *testing.T) {
	// 2^17 is a power of two, but its hash values do not fit the uint16
	// tables.
	for _, nbits := range []int{1000, 1 << 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for nbits %d", nbits)
				}
			}()
			NewBloom(nbits, 2, 1)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected NewH3 to panic past 16 output bits")
		}
	}()
	NewH3(1<<17, rand.New(rand.NewSource(1)))
}
