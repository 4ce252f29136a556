// Package kvstore is a transactional in-memory key-value store with three
// interchangeable concurrency-control backends behind one interface:
//
//   - "stm": the TokenTM-derived software TM in package stm — pessimistic,
//     token-based, eager version management;
//   - "rwmutex": one coarse sync.RWMutex over a Go map — the classic
//     baseline every TM paper compares against;
//   - "tl2-occ": a TL2-style optimistic concurrency control with versioned
//     lock-words and commit-time validation — the progressive/validation
//     design "On the Cost of Concurrency in Transactional Memory" pits
//     against pessimistic schemes.
//
// Keys are non-zero uint64s (zero marks an empty slot); values are uint64.
// The array-backed backends use fixed-capacity linear probing, so a store
// must be created with capacity comfortably above the live key count.
//
// Every committed transaction returns a serial number: a total order over
// that store's commits consistent with transactional conflicts (each backend
// draws the ticket at its serialization point). The stress suite replays
// commit journals in serial order against a reference map to check
// serializability, the same oracle internal/explore runs against the
// simulator.
package kvstore

import (
	"fmt"
	"math/bits"
)

// Tx is the operation set available inside a transaction. Get observes the
// transaction's own earlier Puts (read-your-writes).
type Tx interface {
	Get(key uint64) (uint64, bool)
	Put(key, val uint64)
}

// Handle is a per-worker entry point. Handles are not safe for concurrent
// use: bind exactly one to each goroutine (they carry reusable per-worker
// scratch, so steady-state transactions allocate nothing).
type Handle interface {
	// Txn runs fn atomically and returns the commit serial. readOnly is a
	// hint that fn performs no Puts — backends may exploit it (the coarse
	// backend takes its read lock; the stm backend reads invisibly on every
	// attempt and commits at its read serial without drawing a new one); a
	// Put inside a readOnly transaction panics. fn may be re-executed on
	// conflict; a non-nil error aborts the transaction with all effects
	// rolled back and is returned.
	Txn(readOnly bool, fn func(tx Tx) error) (serial uint64, err error)

	// Get is the point-read fast path: a single-key read-only transaction
	// without the closure machinery, the shape a cache front-end issues.
	// It is equivalent to Txn(true, ...Get(key)...) — same isolation, same
	// serial semantics — but each backend implements it natively (the stm
	// backend reads a committed single-block snapshot with no token
	// traffic at all).
	Get(key uint64) (val uint64, ok bool, serial uint64)

	// Put is the point-write fast path: a single-key blind upsert,
	// equivalent to Txn(false, ...Put(key, val)...). The stm backend runs
	// it as a one-block claim-or-skip mini-transaction (the paper's
	// minimal-write-set case) with no log traffic.
	Put(key, val uint64) (serial uint64)
}

// Store is a transactional KV store. ForEach and Stats require quiescence
// (no concurrent Txn), the usual contract for snapshot inspection.
type Store interface {
	Name() string
	Handle(worker int) Handle
	ForEach(fn func(key, val uint64))
	Stats() Stats
}

// Stats aggregates transaction outcomes across workers.
type Stats struct {
	Commits uint64 // committed transactions
	Aborts  uint64 // aborted-and-retried attempts
}

// AbortRate returns aborted attempts per executed attempt.
func (s Stats) AbortRate() float64 {
	attempts := s.Commits + s.Aborts
	if attempts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(attempts)
}

// Backends lists the registered backend names in presentation order.
var Backends = []string{"stm", "rwmutex", "tl2-occ"}

// New builds the named backend with the given slot capacity (rounded up to
// a power of two) and worker bound.
func New(name string, capacity, workers int) (Store, error) {
	if capacity > maxCapacity {
		return nil, fmt.Errorf("kvstore: capacity %d exceeds the maximum slot count %d", capacity, maxCapacity)
	}
	switch name {
	case "stm":
		return NewSTM(capacity, workers), nil
	case "rwmutex":
		return NewRWMutex(), nil
	case "tl2-occ":
		return NewTL2(capacity), nil
	default:
		return nil, fmt.Errorf("kvstore: unknown backend %q (have %v)", name, Backends)
	}
}

// maxCapacity is the largest representable power-of-two slot count: one more
// doubling would overflow int and ceilPow2's `p <<= 1` used to spin forever.
const maxCapacity = 1 << (bits.UintSize - 2)

// ceilPow2 rounds n up to a power of two (min 1). Requests past the largest
// power-of-two int fail loudly instead of looping on shift overflow.
func ceilPow2(n int) int {
	if n > maxCapacity {
		panic(fmt.Sprintf("kvstore: capacity %d exceeds the maximum slot count %d", n, maxCapacity))
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// hashKey mixes a key for slot placement (splitmix64 finalizer).
func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// tableFull is the panic of a probe chain that has visited every slot
// without finding its key or an empty slot. It formats only when printed,
// so the probe functions that raise it stay within the inlining budget; the
// server's recovered -ERR names it through Error.
type tableFull struct {
	backend string
	key     uint64
}

func (e tableFull) Error() string {
	return fmt.Sprintf("kvstore: %s table full probing key %d", e.backend, e.key)
}
