// Package stm is a goroutine-concurrent software transactional memory that
// ports TokenTM's token double-entry protocol from the simulator to real
// shared memory. It is the host-side counterpart of internal/htm: the same
// fission/fusion metastate rules (paper Tables 3a/3b) drive conflict
// detection, but the per-block metastate lives in 64-bit words updated with
// sync/atomic compare-and-swap (internal/metastate.PackedWord widens the
// Table-4a packing for exactly this use), transactions run on goroutines
// instead of simulated cores, and version management is eager: writes go to
// memory in place, guarded by write tokens, with a per-goroutine undo log
// replayed on abort (the LogTM lineage TokenTM builds on).
//
// What is faithful and what is approximated relative to the paper is
// catalogued in DESIGN.md ("Host STM: simulator structures and their
// atomics counterparts"). The short version: token acquisition, fusion of
// anonymous readers, read-to-write upgrades that fold the upgrader's own
// read token into the all-token claim, and the fast small-transaction
// release path all survive the port; L1 metadata arrays, ECC token storage,
// and signatures do not (a host STM has no cache to hide metadata in, so
// every access pays the metadata CAS that TokenTM's L1 fast path avoids).
//
// Progress: conflicts resolve by requester-side bounded exponential backoff
// with an eldest-transaction tiebreak — a transaction draws a birth ticket
// lazily at its first conflict (conflict-free transactions never touch the
// global ticket counter) and keeps it across retries, and a conflicter that
// is older than the token holder dooms the holder (the holder aborts at its
// next acquisition or commit). A ticketless transaction counts as youngest.
// Once every member of a persistent conflict set has conflicted, all hold
// distinct tickets; the eldest among them is never doomed and dooms
// everything in its way, so it eventually runs alone and commits: no
// deadlock and no starvation.
//
// Visible-reader token traffic is the right cost model for hardware metabits
// riding the cache hierarchy, but on a host every acquire/release pair is two
// contended CAS. So the first attempt of every Thread.Atomically reads
// invisibly: it samples a read serial rv from the commit clock, validates
// each load against the writer-release stamp the block's PackedWord carries
// (see internal/metastate), seqlock-style, and logs the block; no read token
// is taken, a stamp past rv moves rv forward over the re-validated log, and
// the log is re-validated once more at commit, after the serial is drawn and
// before the write tokens go back. For m reads that is m stamp checks and no
// RMW where token reads pay 2m RMWs. The price is that a first-attempt
// reader no longer holds writers off, so one can invalidate it — once:
// every retry reads by token, as does every Group member on every attempt
// (per-TM clocks give an invisible read no cross-TM consistency), so
// under contention the protocol is the paper's and the progress argument
// above applies unchanged. Either way every attempt, including one that
// later aborts, reads one committed state (opacity; DESIGN.md §8).
//
// Thread.ReadOnly is not a separate protocol: it is that invisible attempt
// with an empty write set, on every attempt, committing at rv.
//
// The paper keeps a transaction's R/W bits in the L1 and flash-clears them
// at commit, so that bookkeeping scales with the footprint, not the memory.
// Here too nothing is per block per thread. The W bit is the token word: a
// block showing (T, self) is this attempt's own write. The R bit of a token
// read is the thread's read set, an exact hash set that a new attempt
// empties in O(1). An invisible read holds nothing, so it has no R bit: it
// is an entry in the read log, re-validated at commit.
//
// Tx.Lookup2 and Tx.Upsert2 are Load2 and Store for a record guarded by a
// write-once key, the shape of a slot in an insert-only hash table. They
// examine the record once: one holding another key is passed over with no
// footprint — the one place a transaction reads outside the protocol, by the
// caller's contract — and any other is read or claimed as above.
package stm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"tokentm/internal/mem"
	"tokentm/internal/metastate"
)

// Addr indexes a 64-bit word of transactional memory.
type Addr uint32

// MaxThreads bounds concurrent transactional threads: thread identifiers
// must fit the packed metastate's 14-bit attribute field, with TID 0
// reserved as "no owner" (mem.NoTID).
const MaxThreads = int(mem.MaxTID)

// TM is one transactional memory region: an array of data words plus one
// packed token word per block. All transactional access goes through a
// Thread's Atomically; LoadWord/StoreWord exist for quiescent setup and
// inspection only.
type TM struct {
	shift     uint   // log2(words per block)
	numBlocks uint32 // len(meta)

	// words holds the data. Mutation is guarded by write-token ownership;
	// the atomic type is for tokenless readers (the point reads, invisible
	// attempts), which load data words without holding a token
	// and discard unstable reads seqlock-style — logically sound, but a
	// plain-typed word would still be a detector-level race. On amd64 the
	// atomic load is an ordinary MOV, so the token paths pay nothing for
	// it. The metadata lives in its own dense array (8 blocks' token words
	// per cache line) rather than interleaved with the data: the hot
	// fraction of it stays cache-resident the way TokenTM's L1 metabit
	// arrays do, which measures faster than paying the full data footprint
	// on every token check.
	words []atomic.Uint64
	meta  []atomic.Uint64 // one metastate.PackedWord per block

	opt Options

	threads []Thread // descriptor slots, indexed by TID-1

	// Everything above is read-only after New and read on every access;
	// the two clocks below are written by every transaction. The pads keep
	// the groups on separate cache lines wherever the allocator places the
	// TM, and keep its clocks off the header of whatever is allocated next
	// to it (sharing a line costs inproc-point a quarter of its throughput).
	_      [64]byte
	births atomic.Uint64 // birth-ticket source (eldest tiebreak)
	serial atomic.Uint64 // commit serial clock; doubles as the invisible-read clock
	_      [64]byte
}

// New builds a TM with numBlocks blocks of wordsPerBlock 64-bit words each
// (wordsPerBlock must be a power of two — the conflict-detection granularity,
// the host analog of the paper's 64-byte block), supporting up to maxThreads
// concurrent transactional threads, under the default contention policy.
func New(numBlocks, wordsPerBlock, maxThreads int) *TM {
	return NewWithOptions(numBlocks, wordsPerBlock, maxThreads, Options{})
}

// NewWithOptions is New with explicit Options.
func NewWithOptions(numBlocks, wordsPerBlock, maxThreads int, opt Options) *TM {
	if opt.MaxAttempts < 0 {
		panic("stm: negative Options.MaxAttempts")
	}
	if wordsPerBlock <= 0 || wordsPerBlock&(wordsPerBlock-1) != 0 {
		panic(fmt.Sprintf("stm: wordsPerBlock %d is not a power of two", wordsPerBlock))
	}
	if numBlocks <= 0 {
		panic("stm: numBlocks must be positive")
	}
	if maxThreads <= 0 || maxThreads > MaxThreads {
		panic(fmt.Sprintf("stm: maxThreads %d outside [1, %d]", maxThreads, MaxThreads))
	}
	tm := &TM{
		shift:     uint(bits.TrailingZeros(uint(wordsPerBlock))),
		numBlocks: uint32(numBlocks),
		words:     make([]atomic.Uint64, numBlocks*wordsPerBlock),
		meta:      make([]atomic.Uint64, numBlocks),
		opt:       opt,
		threads:   make([]Thread, maxThreads),
	}
	for i := range tm.threads {
		th := &tm.threads[i]
		th.tm = tm
		th.tid = mem.TID(i + 1)
		th.rng = uint64(i)*0x9e3779b97f4a7c15 + 1
		th.reads.gen = 1
		th.tx.th = th
	}
	return tm
}

// NumBlocks returns the number of conflict-detection blocks.
func (tm *TM) NumBlocks() int { return int(tm.numBlocks) }

// WordsPerBlock returns the conflict-detection granularity in words.
func (tm *TM) WordsPerBlock() int { return 1 << tm.shift }

// NumWords returns the total number of data words.
func (tm *TM) NumWords() int { return len(tm.words) }

// metaw returns block b's packed token word.
func (tm *TM) metaw(b uint32) *atomic.Uint64 { return &tm.meta[b] }

// SerialClock returns the current value of the commit serial clock — the
// serial of the most recent commit (0 before any). Safe to call at any time;
// the network front end reports it in INFO.
func (tm *TM) SerialClock() uint64 { return tm.serial.Load() }

// nextSerial draws the next commit serial, failing loudly (typed
// *metastate.StampOverflowError panic) as the 48-bit writer-release stamp
// field approaches its wrap — a wrapped stamp would validate stale
// reads silently, so no serial past the guard is ever stamped.
func (tm *TM) nextSerial() uint64 {
	s := tm.serial.Add(1)
	if err := metastate.CheckStamp(s); err != nil {
		panic(err)
	}
	return s
}

// dataw returns the cell holding data word a. A transaction stores through
// it only after claiming the block's write tokens and logging the old value
// (Tx.Store; TestWritePathsClaimBeforeStoring and the rollback tests pin it).
func (tm *TM) dataw(a Addr) *atomic.Uint64 { return &tm.words[a] }

// Thread returns the transactional thread with the given id (0-based,
// < maxThreads). Each Thread is single-goroutine: bind one per worker. A
// thread slot costs its descriptor and nothing per block: what an attempt
// has written is in the token words, and what it has read is in its logs and
// a read set sized by its own footprint.
func (tm *TM) Thread(id int) *Thread { return &tm.threads[id] }

// LoadWord reads a data word non-transactionally. Callers must guarantee
// quiescence (setup before workers start, or inspection after they join).
func (tm *TM) LoadWord(a Addr) uint64 { return tm.dataw(a).Load() }

// StoreWord writes a data word non-transactionally, under the same
// quiescence contract as LoadWord.
func (tm *TM) StoreWord(a Addr, v uint64) { tm.dataw(a).Store(v) }

// Stats sums per-thread statistics. Counters are single-writer atomics, so
// calling this while workers run is race-free and per-field exact; only a
// quiescent call (after workers join) is cross-field consistent.
func (tm *TM) Stats() Stats {
	var s Stats
	for i := range tm.threads {
		tm.threads[i].stats.addTo(&s)
	}
	return s
}

// Thread status word: attempt<<statusShift | state. Doom targets one exact
// attempt, so a CAS from a stale status word can never kill a later
// transaction (the attempt counter has moved on).
const (
	stateIdle   = 0 // between transactions (or committed)
	stateActive = 1 // attempt running
	stateDoomed = 2 // an elder conflicter requested abort
	statusShift = 2
	stateMask   = 1<<statusShift - 1
)

// Thread is a per-goroutine transactional context. A Thread must not be
// shared between goroutines; its Tx is reused across transactions so the
// steady state allocates nothing.
type Thread struct {
	tm  *TM
	tid mem.TID // 1-based; packs into the metastate attribute field

	status  atomic.Uint64 // attempt<<statusShift | state
	birth   atomic.Uint64 // birth ticket; 0 = not drawn yet (youngest)
	attempt uint64        // current attempt id (owner-written, status-published)

	reads readSet // blocks a visible attempt holds read tokens on

	rng   uint64 // splitmix64 state for backoff jitter
	tx    Tx
	stats counters

	// Threads sit side by side in TM.threads. The pad rounds the struct up to
	// a whole number of cache lines, so one slot's last counters — stored on
	// every commit and every point Get — stay off the line holding the next
	// slot's tm/tid/status, which that slot's owner reads on every access.
	_ [16]byte
}

// retrySignal unwinds the user function on conflict abort; Atomically
// recovers it and retries the transaction.
type retrySignal struct{}

// Atomically runs fn as one transaction: every Load and Store inside is
// conflict-checked at block granularity and the whole effect commits
// atomically. On conflict the attempt is rolled back (undo log) and fn is
// re-executed after backoff — fn must therefore be safe to repeat and must
// not leak transactional values out except through its final successful run.
// A non-nil error from fn aborts the transaction (all writes undone) and is
// returned. On commit, Atomically returns a serial number: a total order of
// commits consistent with transactional conflicts (the ticket is drawn while
// every token is still held and, on a first attempt, before the tokenless
// reads are re-validated, so it is a true serialization point). With
// Options.MaxAttempts set, a transaction that conflicts away that many
// attempts stops retrying and returns ErrAborted, fully rolled back.
func (th *Thread) Atomically(fn func(tx *Tx) error) (serial uint64, err error) {
	return th.run(fn, false)
}

// ReadOnly runs fn as a transaction that may not write (Store and LoadW
// panic). It is a first attempt of Atomically with two differences. Every
// attempt reads invisibly, not just the first: it holds nothing a peer could
// wait on, so it never needs the visible fallback. And its commit draws no
// serial: every load was validated at rv, and rv only moved forward over a
// re-validated read log, so fn saw exactly the committed state at rv, which
// is the serial returned. Being an ordinary attempt it publishes the status
// word, draws a birth ticket at its first conflict and dooms a younger
// writer, and extends past unrelated commits: only a rewrite of a block it
// has read aborts it.
func (th *Thread) ReadOnly(fn func(tx *Tx) error) (serial uint64, err error) {
	return th.run(fn, true)
}

// run is the one retry driver behind Atomically and ReadOnly.
func (th *Thread) run(fn func(tx *Tx) error, ro bool) (serial uint64, err error) {
	if th.tm == nil {
		panic("stm: Thread not obtained via TM.Thread")
	}
	if th.status.Load()&stateMask != stateIdle {
		panic("stm: nested transaction on one Thread")
	}
	th.birth.Store(0) // ticket drawn lazily at first conflict
	tx := &th.tx
	tx.ro = ro
	for retries := 0; ; retries++ {
		th.beginAttempt(tx, retries > 0 && !ro)
		serial, err, again := th.runAttempt(tx, fn)
		if !again {
			return serial, err
		}
		if ro {
			bump(&th.stats.SnapshotRetries)
		}
		if ma := th.tm.opt.MaxAttempts; ma > 0 && retries+1 >= ma {
			// The aborted attempt already rolled back and released; only
			// the status word still says active.
			th.status.Store(th.attempt<<statusShift | stateIdle)
			return 0, ErrAborted
		}
		th.backoff(retries)
	}
}

// beginAttempt publishes a fresh attempt: bumping the attempt id invalidates
// every doom CAS aimed at the previous attempt. visible chooses the read
// protocol — tokens, tracked in the read set emptied here, or stamp
// validation against a read serial sampled here. The caller's structure
// decides it, not a knob: Atomically reads invisibly on a transaction's first
// attempt and visibly on every retry, ReadOnly invisibly throughout, Group
// members always visibly.
func (th *Thread) beginAttempt(tx *Tx, visible bool) {
	th.attempt++
	th.status.Store(th.attempt<<statusShift | stateActive)
	tx.finished = false
	tx.visible = visible
	if visible {
		th.reads.reset()
	} else {
		tx.rv = th.tm.serial.Load()
	}
	tx.logs.reset()
}

// runAttempt executes fn once, committing on success. again reports that the
// attempt aborted on conflict and the transaction should be retried. A panic
// from fn rolls the attempt back (no tokens leak) and re-panics.
func (th *Thread) runAttempt(tx *Tx, fn func(tx *Tx) error) (serial uint64, err error, again bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(retrySignal); ok {
				again = true
				return
			}
			tx.abortAttempt()
			th.status.Store(th.attempt<<statusShift | stateIdle)
			panic(r)
		}
	}()
	if err = fn(tx); err != nil {
		tx.abortAttempt()
		th.status.Store(th.attempt<<statusShift | stateIdle)
		return 0, err, false
	}
	return tx.commitAttempt(), nil, false
}

// backoff delays a conflicted transaction before its next attempt: bounded
// exponential in the retry count with splitmix jitter, yielding the
// processor so the token holder can run (essential when GOMAXPROCS is small).
func (th *Thread) backoff(retries int) {
	shift := retries
	if shift > backoffShiftCap {
		shift = backoffShiftCap
	}
	n := uint64(1) << shift
	n += nextRand(&th.rng) & (n - 1)
	for i := uint64(0); i < n; i++ {
		runtime.Gosched()
	}
}

// doomed reports whether an elder transaction has requested this attempt's
// abort.
func (th *Thread) doomed() bool {
	return th.status.Load() == th.attempt<<statusShift|stateDoomed
}

// ensureBirth draws this transaction's birth ticket on first conflict. The
// ticket then persists across retries (it is reset only at Atomically
// entry), so a repeatedly-aborted transaction ages toward eldest.
func (th *Thread) ensureBirth() {
	if th.birth.Load() == 0 {
		th.birth.Store(th.tm.births.Add(1))
	}
}

// maybeDoom implements the eldest-transaction tiebreak: if the conflicting
// token holder is an active transaction younger than us, request its abort.
// A holder that has never conflicted carries no ticket (birth 0) and counts
// as youngest. The CAS dooms one exact (thread, attempt) pair; any race
// with the enemy retiring that attempt makes the CAS fail harmlessly.
func (th *Thread) maybeDoom(enemy mem.TID) {
	es := &th.tm.threads[enemy-1]
	s := es.status.Load()
	if s&stateMask != stateActive {
		return
	}
	if eb := es.birth.Load(); eb != 0 && eb <= th.birth.Load() {
		return // enemy is elder (or ourselves): back off instead
	}
	if es.status.CompareAndSwap(s, s&^uint64(stateMask)|stateDoomed) {
		bump(&th.stats.Dooms)
	}
}

// nextRand is splitmix64: cheap per-thread jitter with no global state, so
// threads never contend on a shared rand source.
func nextRand(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
