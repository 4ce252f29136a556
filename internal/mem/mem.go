// Package mem defines the base types shared by every layer of the TokenTM
// simulator: physical addresses, 64-byte blocks, pages, simulated cycles,
// transaction identifiers, and a word-granularity value store.
//
// The paper (Bobba et al., ISCA 2008) tracks transactional state at the
// granularity of 64-byte memory blocks; all conflict detection in this
// repository therefore keys off BlockAddr.
package mem

import "fmt"

// Architectural constants of the modeled system (paper §6.1).
const (
	// BlockBytes is the coherence/conflict-detection granularity.
	BlockBytes = 64
	// BlockShift is log2(BlockBytes).
	BlockShift = 6
	// WordBytes is the data access granularity (one 64-bit word).
	WordBytes = 8
	// WordsPerBlock is the number of 64-bit words in a block.
	WordsPerBlock = BlockBytes / WordBytes
	// PageBytes is the virtual-memory page size used by the paging model.
	PageBytes = 4096
	// PageShift is log2(PageBytes).
	PageShift = 12
	// BlocksPerPage is the number of blocks in one page.
	BlocksPerPage = PageBytes / BlockBytes
)

// Addr is a physical byte address in the simulated machine.
type Addr uint64

// BlockAddr identifies a 64-byte memory block (Addr >> BlockShift).
type BlockAddr uint64

// PageAddr identifies a 4 KB page (Addr >> PageShift).
type PageAddr uint64

// Cycle is a point in (or duration of) simulated time, in processor cycles.
type Cycle uint64

// TID identifies a transactional thread. The paper encodes TIDs in a 14-bit
// attribute field (Table 4a); NoTID marks the absence of an owner.
type TID uint16

// NoTID is the reserved "no owner" thread identifier, shown as "-" in the
// paper's metastate tuples.
const NoTID TID = 0

// MaxTID is the largest encodable thread identifier: TIDs occupy the 14-bit
// Attr field of the in-memory metabits (Table 4a).
const MaxTID TID = 1<<14 - 1

// Block returns the block containing a.
func (a Addr) Block() BlockAddr { return BlockAddr(a >> BlockShift) }

// Page returns the page containing a.
func (a Addr) Page() PageAddr { return PageAddr(a >> PageShift) }

// Addr returns the first byte address of block b.
func (b BlockAddr) Addr() Addr { return Addr(b) << BlockShift }

// Page returns the page containing block b.
func (b BlockAddr) Page() PageAddr { return PageAddr(b >> (PageShift - BlockShift)) }

// Addr returns the first byte address of page p.
func (p PageAddr) Addr() Addr { return Addr(p) << PageShift }

// Block returns the first block of page p.
func (p PageAddr) Block() BlockAddr { return BlockAddr(p) << (PageShift - BlockShift) }

func (a Addr) String() string      { return fmt.Sprintf("0x%x", uint64(a)) }
func (b BlockAddr) String() string { return fmt.Sprintf("B0x%x", uint64(b)) }

// Store is the simulated machine's word-granularity value store. The
// simulator models coherence and metastate separately; data values live in a
// single logical image, which suffices because simulated accesses are
// serialized by the scheduler. Old values are preserved/restored through the
// per-thread transaction logs, exactly as LogTM's eager version management
// does.
// The store holds only the non-zero words, keyed by word index, so its size
// follows the words a workload has written, not the address range they
// span: workloads touch word 0 of scattered blocks, and a page of
// neighbouring words would be almost all zeros. Zero is the implicit value
// of every absent word.
type Store struct {
	words map[Addr]uint64
}

// NewStore returns an empty value store; all words read as zero.
func NewStore() *Store {
	return &Store{words: make(map[Addr]uint64)}
}

// Load returns the 64-bit word at the word-aligned address containing a.
func (s *Store) Load(a Addr) uint64 { return s.words[a/WordBytes] }

// StoreWord writes the 64-bit word at the word-aligned address containing a.
// Storing zero deletes the word.
func (s *Store) StoreWord(a Addr, v uint64) {
	if v == 0 {
		delete(s.words, a/WordBytes)
		return
	}
	s.words[a/WordBytes] = v
}

// Footprint returns the number of distinct non-zero words currently stored.
func (s *Store) Footprint() int { return len(s.words) }
