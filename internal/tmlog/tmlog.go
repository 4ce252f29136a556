// Package tmlog implements the per-thread software-visible transaction log
// that TokenTM (following LogTM) uses for both version management and token
// bookkeeping (paper §3.2, §5.1).
//
// The log is the "credit" side of TokenTM's double-entry bookkeeping: every
// token debited from a block's metastate is credited to exactly one log.
// Two record kinds exist:
//
//   - token records: written on the first transactional load of a block (one
//     word: the block's address, an implicit count of 1) or as part of a
//     store record (address plus explicit token count);
//   - data records: the block's pre-transaction data, written before the
//     first transactional store so an abort can unroll in-place updates.
//
// On commit the log is either reset in constant time (fast token release) or
// walked to release tokens; on abort it is walked in reverse to restore old
// values and release tokens.
package tmlog

import "tokentm/internal/mem"

// Kind discriminates log record types.
type Kind uint8

// Log record kinds.
const (
	// TokenRecord credits tokens acquired on a transactional load (or the
	// token part of a store).
	TokenRecord Kind = iota
	// DataRecord holds a block's pre-transaction data (written with the
	// token part on the first store).
	DataRecord
)

// Record is one log entry: its kind, block and credited tokens. A data
// record's pre-transaction block is kept in the log's side array (Log.Old),
// not in the record, so a record is three host words whatever its kind;
// most records are token records, one word in the simulated log (Bytes).
type Record struct {
	Kind   Kind
	old    uint32 // DataRecord: index of its old block in Log.olds
	Block  mem.BlockAddr
	Tokens uint32 // tokens credited by this record
}

// Bytes returns the simulated size of the record in the in-memory log: one
// word for a load's token record; address word + count word + block data for
// a store record.
func (r Record) Bytes() int {
	if r.Kind == TokenRecord {
		return mem.WordBytes
	}
	return 2*mem.WordBytes + mem.BlockBytes
}

// Log is one thread's transaction log. The zero value is not ready; use New
// so the log has a simulated base address for cache-effect modeling.
type Log struct {
	base    mem.Addr
	records []Record
	olds    [][mem.WordsPerBlock]uint64 // data records' old blocks, in order
	bytes   int
	// recBuf and oldBuf back records and olds until a transaction
	// outgrows them.
	recBuf [16]Record
	oldBuf [4][mem.WordsPerBlock]uint64
}

// New returns an empty log whose simulated storage begins at base. The
// first 16 records and 4 old blocks are stored in the Log itself — many
// workloads' write sets are a handful of blocks — so New is a log's only
// allocation until a transaction outgrows them. Reset keeps whatever
// capacity the log grows to, so steady-state appends never reallocate.
func New(base mem.Addr) *Log {
	l := &Log{base: base}
	l.records = l.recBuf[:0]
	l.olds = l.oldBuf[:0]
	return l
}

// Base returns the log's base address in simulated memory.
func (l *Log) Base() mem.Addr { return l.base }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.records) }

// Bytes returns the simulated size of the log contents; the log pointer
// sits at Base()+Bytes().
func (l *Log) Bytes() int { return l.bytes }

// Tokens returns the total tokens credited to the log for block b.
func (l *Log) Tokens(b mem.BlockAddr) uint32 {
	var n uint32
	for _, r := range l.records {
		if r.Block == b {
			n += r.Tokens
		}
	}
	return n
}

// TotalTokens returns the total tokens credited across all blocks.
func (l *Log) TotalTokens() uint64 {
	var n uint64
	for _, r := range l.records {
		n += uint64(r.Tokens)
	}
	return n
}

// AppendToken credits tokens acquired for block b (a load's single token, or
// an upgrade's T-1). It returns the record's simulated address range for
// log-stall modeling.
func (l *Log) AppendToken(b mem.BlockAddr, tokens uint32) (addr mem.Addr, size int) {
	r := Record{Kind: TokenRecord, Block: b, Tokens: tokens}
	return l.append(r)
}

// AppendData writes a store record: the block's old data plus the tokens
// acquired by the store.
func (l *Log) AppendData(b mem.BlockAddr, tokens uint32, old [mem.WordsPerBlock]uint64) (addr mem.Addr, size int) {
	r := Record{Kind: DataRecord, old: uint32(len(l.olds)), Block: b, Tokens: tokens}
	l.olds = append(l.olds, old)
	return l.append(r)
}

// Old returns data record r's pre-transaction block. r must be a data
// record of l; the array aliases internal state until the next Reset.
func (l *Log) Old(r Record) *[mem.WordsPerBlock]uint64 { return &l.olds[r.old] }

func (l *Log) append(r Record) (mem.Addr, int) {
	addr := l.base + mem.Addr(l.bytes)
	l.records = append(l.records, r)
	l.bytes += r.Bytes()
	return addr, r.Bytes()
}

// Reset discards all records in constant time by resetting the log pointer
// to the log base — the log half of a fast token release.
func (l *Log) Reset() {
	l.records = l.records[:0]
	l.olds = l.olds[:0]
	l.bytes = 0
}

// Records returns the records oldest-first. The slice aliases internal
// state; callers must not retain it across appends.
func (l *Log) Records() []Record { return l.records }
