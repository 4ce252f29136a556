package kvstore

import (
	"fmt"
	"math/bits"

	"tokentm/stm"
)

// Sharded is the stm store with its keyspace labelled into N shards. There
// is one stm.TM underneath — one table, one commit serial clock, one
// birth-ticket source — and a shard is a label: the TOP bits of the mixed
// key hash (ShardOf), while slot placement uses the low bits, so every shard
// is a uniform slice of the keyspace. The label is what the wire protocol
// reports, not a memory: a cross-shard transaction is an ordinary
// transaction of the one TM (first attempt invisible, read-only ones drawing
// no serial), and serials from different shards are comparable because
// there is only one clock.
type Sharded struct {
	*stmStore
	bits uint // log2(shard count); shard index = top bits of hashKey
}

// NewSharded builds a store of `shards` labels (a power of two) over one stm
// table of `capacity` slots (rounded up to a power of two) for up to
// `workers` concurrent handles, under the contention Options opt.
func NewSharded(shards, capacity, workers int, opt stm.Options) *Sharded {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic(fmt.Sprintf("kvstore: shard count %d is not a power of two", shards))
	}
	return &Sharded{
		stmStore: NewSTMWithOptions(capacity, workers, opt).(*stmStore),
		bits:     uint(bits.TrailingZeros(uint(shards))),
	}
}

func (s *Sharded) Name() string { return "stm-sharded" }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return 1 << s.bits }

// ShardOf returns the shard index owning key.
func (s *Sharded) ShardOf(key uint64) int {
	return int(hashKey(key) >> (64 - s.bits)) // bits==0 shifts to 0: one shard
}

// SerialClock returns the commit serial clock — the serial of the most
// recent commit on any shard. Safe to call at any time.
func (s *Sharded) SerialClock() uint64 { return s.tm.SerialClock() }

// Handle binds worker's stm thread into a sharded handle. Like every Handle,
// it is single-goroutine.
func (s *Sharded) Handle(worker int) Handle {
	h := &ShardedHandle{stmHandle: s.stmStore.Handle(worker).(*stmHandle)}
	h.mtx = shardedTx{s: s, tx: &h.stmHandle.tx, serials: make([]uint64, s.NumShards())}
	h.run = h.mtx.run
	return h
}

// ShardedHandle is one worker's entry point into a Sharded store: the one
// TM's stm handle (Txn, Get and Put are its own, so Txn returns the commit
// serial like every Handle), plus the methods the wire protocol's replies
// need, which also report the shards an operation touched.
type ShardedHandle struct {
	*stmHandle
	mtx shardedTx
	run func(Tx) error // mtx.run, bound once
}

// TxnSerials runs fn as one transaction (Txn's retry/error contract,
// including ErrAborted under a MaxAttempts bound) and returns the N-wide
// serial vector of the wire protocol: the commit serial in the slot of every
// shard the committed attempt touched, 0 in the others. The slice is the
// handle's own, valid until its next TxnSerials.
func (h *ShardedHandle) TxnSerials(readOnly bool, fn func(tx Tx) error) ([]uint64, error) {
	h.mtx.fn = fn
	serial, err := h.Txn(readOnly, h.run)
	if err != nil {
		return nil, err
	}
	for i, touched := range h.mtx.serials {
		if touched != 0 {
			h.mtx.serials[i] = serial
		}
	}
	return h.mtx.serials, nil
}

// GetSharded is Get plus the owning shard index: (value, present, shard,
// serial).
func (h *ShardedHandle) GetSharded(key uint64) (val uint64, ok bool, shard int, serial uint64) {
	val, ok, serial = h.Get(key)
	return val, ok, h.mtx.s.ShardOf(key), serial
}

// PutSharded is Put plus the owning shard index.
func (h *ShardedHandle) PutSharded(key, val uint64) (shard int, serial uint64) {
	return h.mtx.s.ShardOf(key), h.Put(key, val)
}

// shardedTx is the stm transaction view with a mark per shard: every Get
// and Put sets its key's shard's slot of serials, which run clears at the
// start of every attempt, so only the committed attempt's shards are marked.
type shardedTx struct {
	s       *Sharded
	tx      *stmTx
	fn      func(Tx) error
	serials []uint64
}

func (t *shardedTx) run(Tx) error {
	clear(t.serials)
	return t.fn(t)
}

func (t *shardedTx) Get(key uint64) (uint64, bool) {
	t.serials[t.s.ShardOf(key)] = 1
	return t.tx.Get(key)
}

func (t *shardedTx) Put(key, val uint64) {
	t.serials[t.s.ShardOf(key)] = 1
	t.tx.Put(key, val)
}
