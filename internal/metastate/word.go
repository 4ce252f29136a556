package metastate

import "fmt"

// PackedWord is the host-side view of a block's packed metastate: the 16
// Table-4a metabits widened to a 64-bit word so real goroutines can update
// them with sync/atomic compare-and-swap. The simulator keeps using the bare
// 16-bit Packed form (the hardware stores exactly 16 metabits per block);
// the host STM in stm/ stores one PackedWord per block instead, because
// 64-bit words are the natural unit of Go's atomics.
//
// Layout:
//
//	bits 63..16  stamp  — commit serial of the last writer to release this
//	             block (monotone per block; 0 = never written)
//	bits 15..0   Packed — the Table-4a metabits, unchanged
//
// The stamp is what enables the host STM's tokenless (invisible) reads: a
// reader that sampled read-serial rv accepts a block iff its
// metabits show no writer and its stamp is at most rv, re-reading the word
// after the data load for seqlock-style stability. Token transitions that
// do not publish data — read acquires, fusion, read releases — preserve the
// stamp (With); only a writer's release installs a new one (MakeWord with a
// fresh serial). Data words change only between a write acquire and the
// matching release, and both release paths stamp a fresh serial, so a
// stable word with no writer bits proves the data words were stable too.
type PackedWord uint64

// packedWordShift is the bit offset of the stamp field.
const packedWordShift = 16

// StampBits is the width of the writer-release serial field.
const StampBits = 64 - packedWordShift

// MaxStamp is the largest representable writer-release serial. A serial past
// it would truncate silently in MakeWord, wrap the per-block stamp backwards,
// and let a stale snapshot validate (`Stamp() > rv` can never fire once the
// stamp has wrapped below rv) — so serial clocks must fail loudly on
// approach via CheckStamp instead of ever reaching it.
const MaxStamp = 1<<StampBits - 1

// StampGuardMargin is how far before MaxStamp CheckStamp starts failing:
// wide enough that every in-flight transaction of any plausible thread count
// still gets a distinct non-wrapping serial after the first refusal.
const StampGuardMargin = 1 << 20

// StampOverflowError reports a writer-release serial that is about to
// overflow the 48-bit stamp field.
type StampOverflowError struct {
	Stamp uint64 // the serial that tripped the guard
}

func (e *StampOverflowError) Error() string {
	return fmt.Sprintf("metastate: commit serial %d within %d of the %d-bit stamp wrap (max %d); stale snapshots would validate past the wrap",
		e.Stamp, uint64(MaxStamp)-e.Stamp, StampBits, uint64(MaxStamp))
}

// CheckStamp validates a serial about to be stamped into a PackedWord,
// returning a typed error once it approaches the wrap.
func CheckStamp(stamp uint64) error {
	if stamp >= MaxStamp-StampGuardMargin {
		return &StampOverflowError{Stamp: stamp}
	}
	return nil
}

// MakeWord assembles a PackedWord from metabits and a stamp. Writer
// releases use it to publish their commit (or abort) serial.
func MakeWord(p Packed, stamp uint64) PackedWord {
	return PackedWord(stamp<<packedWordShift | uint64(p))
}

// Packed extracts the 16 Table-4a metabits.
func (w PackedWord) Packed() Packed { return Packed(w) }

// Stamp extracts the 48-bit writer-release serial.
func (w PackedWord) Stamp() uint64 { return uint64(w) >> packedWordShift }

// With returns w carrying new metabits and the same stamp — the value to
// CAS in for transitions that do not publish data (read acquires, fusion,
// read releases). Keeping the stamp is load-bearing: if read traffic bumped
// it, hot read-shared blocks would run ahead of the serial clock and starve
// tokenless readers.
func (w PackedWord) With(p Packed) PackedWord {
	return MakeWord(p, w.Stamp())
}
