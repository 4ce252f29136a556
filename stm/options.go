package stm

import "errors"

// The contention policy: how long an acquisition spins before the attempt
// gives up, and how the losing side backs off. Constants rather than
// Options fields: exactly one value of each is in use.
const (
	// spinLimit bounds how many CAS/conflict rounds one token acquisition
	// (or one tokenless read's wait for a writer) tries before the attempt
	// aborts and retries from scratch — requester-side conflict resolution.
	spinLimit = 48

	// upgradeSpinLimit is the much tighter bound for a read-to-write
	// upgrade blocked by other readers: the upgrader holds a fused read
	// token the very readers it waits on may themselves be waiting for, so
	// it must stop blocking the herd almost immediately (the PR-6
	// upgrade-herd livelock guard).
	upgradeSpinLimit = 2

	// backoffShiftCap caps the exponent of the attempt-level exponential
	// backoff: a conflicted transaction yields up to 2^min(retries, cap)
	// (plus jitter) scheduler quanta before its next attempt. The cap is
	// all the patience a blocked upgrader has — it gives up ~13 us into
	// each attempt (upgradeSpinLimit) — so under a MaxAttempts bound it
	// must outlast the reader being off the CPU for an OS timeslice or a
	// GC mark slice: 2^10 yields make 256 attempts last ~50 ms, about what
	// spinLimit gives every other conflict (2^6 made them 3.4 ms, and a
	// bounded Group transaction then hit ErrAborted against a live peer).
	backoffShiftCap = 10

	// spinShiftCap caps the exponent of the per-round acquisition backoff
	// (spinWait): one losing round yields up to 2^min(round, cap) times
	// before re-examining the token word.
	spinShiftCap = 5
)

// Options is what an embedder chooses about a TM's contention handling.
type Options struct {
	// MaxAttempts bounds how many attempts one transaction makes before
	// Atomically / ReadOnly / Group.Atomically stops retrying and returns
	// ErrAborted with every effect rolled back. Zero (the default) retries
	// forever; a network front end sets a bound so a pathological conflict
	// surfaces to the client as a retryable error instead of a stuck
	// connection.
	MaxAttempts int
}

// ErrAborted reports that a transaction exhausted Options.MaxAttempts
// without committing. Every effect of every attempt has been rolled back
// and every token returned; the caller may simply try again later (the
// server surfaces it to the client as -RETRY).
var ErrAborted = errors.New("stm: transaction aborted after MaxAttempts conflicted attempts")
