package kvstore

import (
	"fmt"

	"tokentm/stm"
)

// Sharded hash-partitions the KV table over N independent stm-backed stores,
// each with its own stm.TM — its own token words, its own birth-ticket
// source, and crucially its own commit serial clock, so disjoint key ranges
// stop sharing one serial ticket (the ROADMAP's sharding leg). Shard
// placement uses the TOP bits of the mixed key hash; slot placement within a
// shard uses the low bits, so the two are independent and every shard sees a
// uniform slice of the keyspace.
//
// Point operations route to the owning shard's fast paths untouched. A
// transaction (Txn/TxnSerials) runs as one stm.Group transaction spanning
// every shard: strict two-phase locking across the group holds all tokens on
// all shards until a commit serial has been drawn from every touched shard,
// which keeps cross-shard transactions atomic and the per-shard serial
// orders mutually consistent (see stm.Group). Shards the transaction never
// touches ride along for the price of a status-word flip each — no tokens,
// no serials.
type Sharded struct {
	shards []*stmStore
	bits   uint // log2(len(shards)); shard index = top bits of hashKey
}

// NewSharded builds a store of `shards` stm shards (a power of two) with
// `capacity` total slots spread evenly across them, for up to `workers`
// concurrent handles, every shard under the same contention Options (the
// Group's MaxAttempts is read from the first shard, so uniformity is part of
// the contract).
func NewSharded(shards, capacity, workers int, opt stm.Options) *Sharded {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic(fmt.Sprintf("kvstore: shard count %d is not a power of two", shards))
	}
	per := (capacity + shards - 1) / shards
	if per < 8 {
		per = 8
	}
	s := &Sharded{
		shards: make([]*stmStore, shards),
		bits:   uint(log2(shards)),
	}
	for i := range s.shards {
		s.shards[i] = NewSTMWithOptions(per, workers, opt).(*stmStore)
	}
	return s
}

// log2 of a power of two.
func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

func (s *Sharded) Name() string { return "stm-sharded" }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf returns the shard index owning key.
func (s *Sharded) ShardOf(key uint64) int {
	return int(hashKey(key) >> (64 - s.bits)) // bits==0 shifts to 0: one shard
}

// ForEach enumerates every shard's committed state (quiescent-only). Order
// is per-shard insertion order; consumers that need a canonical order sort
// (Checksum does).
func (s *Sharded) ForEach(fn func(key, val uint64)) {
	for _, sh := range s.shards {
		sh.ForEach(fn)
	}
}

// Stats sums transaction outcomes across shards. A cross-shard transaction
// counts one commit per shard it ran on — per-shard books, summed.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Commits += st.Commits
		out.Aborts += st.Aborts
	}
	return out
}

// ShardSTMStats exposes shard i's protocol counters for INFO/benchmark
// reporting. Single-writer atomics underneath: safe to call while workers
// run, per-field exact.
func (s *Sharded) ShardSTMStats(i int) stm.Stats { return s.shards[i].STMStats() }

// ShardSerial returns shard i's commit serial clock — the serial of its most
// recent commit. Safe to call at any time.
func (s *Sharded) ShardSerial(i int) uint64 { return s.shards[i].tm.SerialClock() }

// Handle binds worker's per-shard threads into one sharded handle. Like
// every Handle, it is single-goroutine.
func (s *Sharded) Handle(worker int) Handle {
	h := &ShardedHandle{s: s}
	threads := make([]*stm.Thread, len(s.shards))
	for i, sh := range s.shards {
		h.point = append(h.point, sh.Handle(worker).(*stmHandle))
		threads[i] = sh.tm.Thread(worker)
	}
	h.group = stm.NewGroup(threads...)
	h.tx.h = h
	h.tx.sub = make([]stmTx, len(s.shards))
	for i := range h.tx.sub {
		h.tx.sub[i].st = s.shards[i]
	}
	h.bound = func(gt *stm.GroupTx) error {
		for i := range h.tx.sub {
			h.tx.sub[i].itx = gt.Tx(i)
		}
		return h.fn(&h.tx)
	}
	return h
}

// ShardedHandle is one worker's entry point into a Sharded store. The
// sharded-specific methods (TxnSerials, GetSharded, PutSharded) report which
// shard an operation ran on and that shard's serial, which is what the
// per-shard journal oracle and the wire protocol's reply format need.
type ShardedHandle struct {
	s     *Sharded
	point []*stmHandle // per-shard point-op fast paths (share the group's threads)
	group *stm.Group
	tx    shardedTx
	fn    func(Tx) error
	bound func(*stm.GroupTx) error
}

// TxnSerials runs fn as one atomic transaction across all shards and returns
// one commit serial per shard: the serial drawn from that shard's clock, or
// 0 for shards the transaction never touched. Same retry/error contract as
// Handle.Txn (including ErrAborted under a MaxAttempts bound). The slice is
// the handle's own, valid until its next transaction (stm.Group.Atomically).
func (h *ShardedHandle) TxnSerials(readOnly bool, fn func(tx Tx) error) ([]uint64, error) {
	h.fn = fn
	h.tx.readOnly = readOnly
	return h.group.Atomically(h.bound)
}

// Txn implements Handle. The returned serial is the touched shard's commit
// serial when the transaction touched exactly one shard, and 0 otherwise —
// serials from different shards are not comparable, so there is no honest
// single number for a cross-shard commit. Journaling callers use TxnSerials.
func (h *ShardedHandle) Txn(readOnly bool, fn func(tx Tx) error) (uint64, error) {
	serials, err := h.TxnSerials(readOnly, fn)
	if err != nil {
		return 0, err
	}
	var serial uint64
	touched := 0
	for _, s := range serials {
		if s != 0 {
			serial = s
			touched++
		}
	}
	if touched != 1 {
		return 0, nil
	}
	return serial, nil
}

// Get implements Handle, routing to the owning shard's point-read fast path.
func (h *ShardedHandle) Get(key uint64) (val uint64, ok bool, serial uint64) {
	return h.point[h.s.ShardOf(key)].Get(key)
}

// Put implements Handle, routing to the owning shard's point-write fast path.
func (h *ShardedHandle) Put(key, val uint64) uint64 {
	return h.point[h.s.ShardOf(key)].Put(key, val)
}

// GetSharded is Get plus the owning shard index: (value, present, shard,
// that shard's serial).
func (h *ShardedHandle) GetSharded(key uint64) (val uint64, ok bool, shard int, serial uint64) {
	shard = h.s.ShardOf(key)
	val, ok, serial = h.point[shard].Get(key)
	return
}

// PutSharded is Put plus the owning shard index.
func (h *ShardedHandle) PutSharded(key, val uint64) (shard int, serial uint64) {
	shard = h.s.ShardOf(key)
	return shard, h.point[shard].Put(key, val)
}

// shardedTx routes transactional operations to the owning shard's stmTx. The
// sub transactions always read visibly — a group transaction holds tokens
// even for its reads (invisible reads have no cross-shard consistency
// story) — so readOnly here only enforces the no-Put contract.
type shardedTx struct {
	h        *ShardedHandle
	sub      []stmTx
	readOnly bool
}

func (t *shardedTx) Get(key uint64) (uint64, bool) {
	return t.sub[t.h.s.ShardOf(key)].Get(key)
}

func (t *shardedTx) Put(key, val uint64) {
	if t.readOnly {
		panic("kvstore: Put inside readOnly transaction")
	}
	t.sub[t.h.s.ShardOf(key)].Put(key, val)
}
