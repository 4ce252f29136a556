// Package htm defines the framework shared by the simulated HTM systems:
// transaction and thread records, access outcomes, the System interface the
// simulator drives, the timestamp-based contention-management policy used by
// all of the paper's variants (§6.1), and the metrics the evaluation section
// reports.
package htm

import (
	"tokentm/internal/mem"
	"tokentm/internal/tmlog"
)

// Fixed operation costs (cycles) shared by the HTM variants.
const (
	// BeginCycles checkpoints registers and initializes transactional
	// state.
	BeginCycles mem.Cycle = 10
	// FastCommitCycles is a constant-time commit (flash clear / signature
	// clear).
	FastCommitCycles mem.Cycle = 10
	// ReleaseRecordCycles is the software handler cost per log record
	// released on a log walk (trap + loop body), excluding memory system
	// time, which is simulated separately.
	ReleaseRecordCycles mem.Cycle = 8
	// logWriteOverlap models the store buffer hiding most of a log
	// write's miss latency: only 1/logWriteOverlap of the raw memory
	// time stalls the core (log writes are not on the critical path
	// unless the buffer fills; Moore's thesis, cited in §6.2, identifies
	// the residual stalls as the dominant logging overhead).
	logWriteOverlap mem.Cycle = 8
	// abortRecordCycles is the per-record cost of unrolling the log.
	abortRecordCycles mem.Cycle = 30
	// conflictTrapCycles is the cost of trapping to the software
	// contention manager.
	conflictTrapCycles mem.Cycle = 80
	// LogWalkPerRecordCycles is the cost, per remote log record scanned,
	// of the §5.2 hard case where the contention manager must search
	// active transactions' logs to identify unknown readers.
	LogWalkPerRecordCycles mem.Cycle = 8
	// CtxSwitchCycles is the constant-time flash-OR context switch cost.
	CtxSwitchCycles mem.Cycle = 40
)

// Outcome classifies the result of one transactional (or strongly-atomic
// non-transactional) memory access attempt.
type Outcome int

// Access outcomes.
const (
	// OK: the access completed.
	OK Outcome = iota
	// Stall: a conflict was detected; the requester should back off and
	// retry (possibly after enemies were told to abort).
	Stall
	// AbortSelf: the contention manager decided this transaction loses;
	// the caller must run the abort handler and restart.
	AbortSelf
)

// Access describes one access attempt's result.
type Access struct {
	Outcome Outcome
	Latency mem.Cycle
	// Enemies lists identified conflicting transactions (for diagnostics).
	Enemies []*Xact
	// Kind classifies the conflict (KindNone for OK accesses).
	Kind ConflictKind
	// False marks a conflict that exact read/write sets would not have
	// flagged — a signature false positive (Figure 1's subject).
	False bool
}

// ConflictKind classifies a conflict by the requester's and holders' roles.
type ConflictKind int

// Conflict kinds. KindNone is the zero value: no conflict recorded.
const (
	KindNone ConflictKind = iota
	// KindReadVsWriter: a read found a foreign transactional writer.
	KindReadVsWriter
	// KindWriteVsReaders: a write found foreign transactional readers.
	KindWriteVsReaders
	// KindWriteVsWriter: a write found a foreign transactional writer.
	KindWriteVsWriter
	// KindNonXact: a non-transactional access hit transactional state
	// (strong atomicity).
	KindNonXact
)

// String names the conflict kind.
func (k ConflictKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindReadVsWriter:
		return "read-vs-writer"
	case KindWriteVsReaders:
		return "write-vs-readers"
	case KindWriteVsWriter:
		return "write-vs-writer"
	case KindNonXact:
		return "non-transactional"
	default:
		panic("htm: unknown conflict kind")
	}
}

// Xact is one transaction attempt's record.
type Xact struct {
	TID  mem.TID
	Core int
	// Timestamp is the begin time of the *first* attempt; it survives
	// aborts so the timestamp policy is starvation-free.
	Timestamp mem.Cycle
	Active    bool
	// AbortRequested is set by the contention manager when an older
	// transaction wins a conflict; the victim aborts at its next
	// transactional operation.
	AbortRequested bool
	// Stalling is true while the transaction is in a conflict stall-retry
	// loop. A stalled transaction that an older transaction wants is a
	// possible deadlock cycle and must abort (LogTM's rule).
	Stalling bool
	// FastOK tracks fast-token-release eligibility: it starts true and is
	// revoked when a line holding this transaction's tokens leaves the L1
	// or the thread is context switched (§4.4).
	FastOK bool
	// Tokens indexes the tokens this transaction holds per block (the log
	// is the ground truth; this is the index used for release and for
	// self-conflict checks). Its sorted block list fixes the release walk
	// order, keeping cycle totals independent of map iteration order.
	Tokens TokenSet
	// ReadSet and WriteSet are the exact block sets (used for stats and
	// for detecting signature false positives).
	ReadSet  map[mem.BlockAddr]struct{}
	WriteSet map[mem.BlockAddr]struct{}
	// BeginTime is the begin time of the current attempt.
	BeginTime mem.Cycle
	// Attempts counts begin attempts (1 = no aborts).
	Attempts int
	// LogStall accumulates cycles stalled writing log records.
	LogStall mem.Cycle

	// Cycle-attribution accumulators (Figures 7–9). StallCycles,
	// BackoffCycles and WastedCycles span the transaction's whole lifetime —
	// they survive Reset so the committing attempt's record carries the full
	// cost of getting there.
	//
	// StallCycles is time trapped in the contention manager.
	StallCycles mem.Cycle
	// BackoffCycles is randomized stall backoff between conflict retries.
	BackoffCycles mem.Cycle
	// WastedCycles is work performed by attempts that aborted.
	WastedCycles mem.Cycle

	// Abort attribution for the *current* attempt (cleared by Reset): set by
	// the contention manager when this transaction is told to abort, consumed
	// by the simulator's abort-lifecycle record.
	//
	// AbortedBy is the winner's TID (NoTID for a non-transactional winner).
	AbortedBy mem.TID
	// AbortBlock is the block the losing conflict was on.
	AbortBlock mem.BlockAddr
	// AbortKind classifies the losing conflict (KindNone: no abort recorded).
	AbortKind ConflictKind
}

// Reset prepares the record for a fresh attempt, preserving Timestamp and
// Attempts. Token and read/write-set storage is reused across attempts, so
// aborting and retrying allocates nothing after the first attempt.
func (x *Xact) Reset() {
	x.Active = true
	x.AbortRequested = false
	x.Stalling = false
	x.FastOK = true
	x.Tokens.Reset()
	if x.ReadSet == nil {
		x.ReadSet = make(map[mem.BlockAddr]struct{})
		x.WriteSet = make(map[mem.BlockAddr]struct{})
	} else {
		clear(x.ReadSet)
		clear(x.WriteSet)
	}
	x.LogStall = 0
	x.AbortedBy = mem.NoTID
	x.AbortBlock = 0
	x.AbortKind = KindNone
}

// Older reports whether x has priority over y under timestamp ordering,
// breaking ties by TID.
func (x *Xact) Older(y *Xact) bool {
	if x.Timestamp != y.Timestamp {
		return x.Timestamp < y.Timestamp
	}
	return x.TID < y.TID
}

// Thread is one software thread known to the HTM: it owns a log and at most
// one active transaction. Threads are created by the simulator and
// registered with the HTM system.
type Thread struct {
	ID   int
	TID  mem.TID
	Core int
	Xact *Xact
	Log  *tmlog.Log
}

// InXact reports whether the thread has an active transaction.
func (t *Thread) InXact() bool { return t.Xact != nil && t.Xact.Active }

// Decision is the contention manager's verdict for the requester.
type Decision int

// Contention-management decisions.
const (
	// DecideStall: back off and retry.
	DecideStall Decision = iota
	// DecideAbortSelf: the requester aborts.
	DecideAbortSelf
)

// resolveTimestamp implements the timestamp (LogTM-style) conflict
// resolution used by all the paper's HTM variants: the requester stalls and
// retries, and transactions abort only when a deadlock cycle is possible.
// A younger holder that is itself stalled while an older requester wants its
// data closes a potential waits-for cycle and is told to abort. The
// retryLimit is a livelock backstop: past it, an older requester forces its
// younger holders out, and a younger requester sacrifices itself.
// A nil requester models a non-transactional access (strong atomicity): it
// has no priority and always stalls; the transactional holder finishes.
func resolveTimestamp(req *Xact, enemies []*Xact, retries, retryLimit int) (abort []*Xact, dec Decision) {
	if req == nil {
		return nil, DecideStall
	}
	olderEnemyExists := false
	for _, e := range enemies {
		if req.Older(e) {
			// e is younger: abort it only on deadlock risk (it is
			// waiting and now wanted) or as a livelock backstop.
			if e.Stalling || retries >= retryLimit {
				abort = append(abort, e)
			}
		} else {
			olderEnemyExists = true
		}
	}
	if olderEnemyExists && retries >= retryLimit {
		return abort, DecideAbortSelf
	}
	return abort, DecideStall
}

// applyResolution records a contention-management verdict on the losers:
// every transaction in abort is marked AbortRequested with attribution
// (winner's TID, conflicting block, conflict kind), and a requester ordered
// to abort itself records its first identified enemy as the winner. Only the
// first cause per attempt sticks — a victim already condemned keeps its
// original attribution until Reset.
func applyResolution(req *Xact, enemies, abort []*Xact, dec Decision, b mem.BlockAddr, kind ConflictKind) {
	winner := mem.NoTID
	if req != nil {
		winner = req.TID
	}
	for _, e := range abort {
		e.AbortRequested = true
		if e.AbortKind == KindNone {
			e.AbortedBy = winner
			e.AbortBlock = b
			e.AbortKind = kind
		}
	}
	if dec == DecideAbortSelf && req != nil && req.AbortKind == KindNone {
		if len(enemies) > 0 {
			req.AbortedBy = enemies[0].TID
		}
		req.AbortBlock = b
		req.AbortKind = kind
	}
}

// System is the interface each HTM variant implements; the simulator calls
// it with the scheduler's turn held, so implementations need no locking.
type System interface {
	// Name is the paper's name for the variant (e.g. "TokenTM").
	Name() string
	// Register introduces a thread before the simulation starts.
	Register(th *Thread)
	// RunningOn notifies which thread currently occupies a core (nil for
	// idle); used to interpret per-core metabit state.
	RunningOn(core int, th *Thread)
	// Begin starts a transaction attempt for th, returning its latency.
	// ts is the priority timestamp (first-attempt begin time).
	Begin(th *Thread, now mem.Cycle) mem.Cycle
	// Load performs a (transactional if th.InXact) read of addr.
	Load(th *Thread, addr mem.Addr, retries int) (uint64, Access)
	// Store performs a (transactional if th.InXact) write of addr.
	Store(th *Thread, addr mem.Addr, val uint64, retries int) Access
	// Commit ends th's transaction; fast reports a constant-time commit.
	Commit(th *Thread) (lat mem.Cycle, fast bool)
	// Abort unrolls th's transaction (restoring memory and releasing
	// conflict-detection state) and returns the handler latency.
	Abort(th *Thread) mem.Cycle
	// ContextSwitch swaps threads on a core (out or in may be nil).
	ContextSwitch(core int, out, in *Thread) mem.Cycle
	// Stats exposes the variant's metrics.
	Stats() *Metrics
}

// CommitRecord captures one committed transaction for the Table 5/6 and
// Figure 5 reports.
type CommitRecord struct {
	Thread      int
	ReadBlocks  int
	WriteBlocks int
	Duration    mem.Cycle
	Fast        bool
	// ReleaseCycles is the software token-release time (0 for fast
	// commits and for LogTM-SE).
	ReleaseCycles mem.Cycle
	// LogStall is the time stalled on log writes.
	LogStall mem.Cycle
	// Attempts is the number of tries (1 = committed first time).
	Attempts int
	// StallCycles/BackoffCycles/WastedCycles carry the transaction's
	// lifetime conflict costs (accumulated across all attempts, aborted ones
	// included) into the commit stream for per-transaction attribution.
	StallCycles   mem.Cycle
	BackoffCycles mem.Cycle
	WastedCycles  mem.Cycle
}

// AbortRecord captures one aborted transaction attempt for the lifecycle
// stream: who lost, who won, where, and what the attempt cost.
type AbortRecord struct {
	// Thread is the simulator thread id; TID the transactional identity.
	Thread int
	TID    mem.TID
	// Attempt is the 1-based attempt number that aborted.
	Attempt int
	// Enemy is the conflict winner's TID (NoTID for a non-transactional
	// winner).
	Enemy mem.TID
	// Block is the block the losing conflict was on.
	Block mem.BlockAddr
	// Kind classifies the losing conflict.
	Kind ConflictKind
	// Wasted is the attempt's reclassified work (begin + useful + memory).
	Wasted mem.Cycle
	// Unroll is the abort handler's log-walk time.
	Unroll mem.Cycle
}

// Metrics aggregates HTM events over a run.
type Metrics struct {
	Commits        []CommitRecord
	Aborts         uint64
	Conflicts      uint64
	FalseConflicts uint64
	Stalls         uint64
	// HardCaseLookups counts §5.2's hardest case: log walks to identify
	// unknown readers.
	HardCaseLookups uint64
	// Conflict breakdown by requester/holder kind (each retry counts).
	ReadVsWriter   uint64
	WriteVsReaders uint64
	WriteVsWriter  uint64
	NonXactConf    uint64
}

// RecordCommit appends a commit record.
func (m *Metrics) RecordCommit(r CommitRecord) { m.Commits = append(m.Commits, r) }

// CountConflict bumps the per-kind conflict counter for k.
func (m *Metrics) CountConflict(k ConflictKind) {
	switch k {
	case KindNone:
	case KindReadVsWriter:
		m.ReadVsWriter++
	case KindWriteVsReaders:
		m.WriteVsReaders++
	case KindWriteVsWriter:
		m.WriteVsWriter++
	case KindNonXact:
		m.NonXactConf++
	default:
		panic("htm: unknown conflict kind")
	}
}
