package kvstore

// Sharded-store tests: routing/partition sanity, cross-shard atomicity and
// the serial vector, and equivalence with the unsharded backend under a
// seeded single-threaded stream (same final checksum). The race-enabled
// stress is the stm-sharded row of TestStressSerializability: one clock, so
// one merged journal.

import (
	"errors"
	"reflect"
	"testing"

	"tokentm/stm"
)

func TestShardedPartitionCoversKeyspace(t *testing.T) {
	s := NewSharded(4, 1024, 1, stm.Options{})
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	counts := make([]int, 4)
	for k := uint64(1); k <= 4096; k++ {
		sh := s.ShardOf(k)
		if sh < 0 || sh >= 4 {
			t.Fatalf("ShardOf(%d) = %d out of range", k, sh)
		}
		counts[sh]++
	}
	for i, c := range counts {
		// The hash spreads uniformly: each shard should hold ~1024 of 4096
		// keys. A shard under an eighth of its fair share means the top-bits
		// routing is broken, not just unlucky.
		if c < 4096/32 {
			t.Errorf("shard %d holds %d of 4096 keys — partition badly skewed", i, c)
		}
	}

	one := NewSharded(1, 64, 1, stm.Options{})
	for k := uint64(1); k <= 100; k++ {
		if sh := one.ShardOf(k); sh != 0 {
			t.Fatalf("1-shard ShardOf(%d) = %d", k, sh)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(3, ...) did not panic")
		}
	}()
	NewSharded(3, 64, 1, stm.Options{})
}

// TestShardedMatchesUnsharded drives the identical seeded single-threaded
// stream into the unsharded stm backend and sharded stores of several widths
// and demands identical final state (and therefore Checksum) — the in-process
// half of the stmbench cross-target determinism gate.
func TestShardedMatchesUnsharded(t *testing.T) {
	const (
		keyspace = 512
		ops      = 8000
		seed     = 7
	)
	run := func(s Store) map[uint64]uint64 {
		h := s.Handle(0)
		rng := uint64(seed)
		for i := 0; i < ops; i++ {
			applyStoreOp(t, &rng, h, keyspace)
		}
		return snapshot(s)
	}
	want := run(NewSTM(4*keyspace, 1))
	for _, shards := range []int{1, 2, 8} {
		s := NewSharded(shards, 4*keyspace, 1, stm.Options{})
		got := run(s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: final state diverges from unsharded (%d vs %d keys)", shards, len(got), len(want))
		}
	}
}

func TestShardedCrossShardAtomicity(t *testing.T) {
	s := NewSharded(4, 1024, 1, stm.Options{})
	h := s.Handle(0).(*ShardedHandle)

	// Find two keys on different shards.
	a := uint64(1)
	b := uint64(2)
	for s.ShardOf(b) == s.ShardOf(a) {
		b++
	}

	serials, err := h.TxnSerials(false, func(tx Tx) error {
		tx.Put(a, 10)
		tx.Put(b, 20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, serial := range serials {
		touched := i == s.ShardOf(a) || i == s.ShardOf(b)
		if clock := s.SerialClock(); touched && serial != clock || !touched && serial != 0 {
			t.Errorf("serials %v: shard %d carries %d, want the clock %d on shards %d and %d, 0 elsewhere",
				serials, i, serial, clock, s.ShardOf(a), s.ShardOf(b))
		}
	}

	// The next vector marks only its own transaction's shards.
	serials, err = h.TxnSerials(true, func(tx Tx) error {
		tx.Get(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, serial := range serials {
		if (serial != 0) != (i == s.ShardOf(b)) {
			t.Errorf("read of b alone: serials %v", serials)
		}
	}

	// Txn returns the commit serial, cross-shard or not.
	if serial, err := h.Txn(false, func(tx Tx) error {
		tx.Put(a, 11)
		tx.Put(b, 21)
		return nil
	}); err != nil || serial == 0 || serial != s.SerialClock() {
		t.Errorf("cross-shard Txn = (%d, %v), want (%d, nil)", serial, err, s.SerialClock())
	}
	if serial, err := h.Txn(false, func(tx Tx) error {
		tx.Put(a, 12)
		return nil
	}); err != nil || serial == 0 || serial != s.SerialClock() {
		t.Errorf("single-shard Txn = (%d, %v), want (%d, nil)", serial, err, s.SerialClock())
	}

	// Error rollback spans shards.
	boom := errors.New("boom")
	if _, err := h.TxnSerials(false, func(tx Tx) error {
		tx.Put(a, 99)
		tx.Put(b, 99)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got := snapshot(s)
	if got[a] != 12 || got[b] != 21 {
		t.Errorf("rollback left a=%d b=%d, want 12, 21", got[a], got[b])
	}

	// Point ops report the routing shard.
	if v, ok, shard, serial := h.GetSharded(a); !ok || v != 12 || shard != s.ShardOf(a) || serial == 0 {
		t.Errorf("GetSharded(a) = (%d,%v,%d,%d)", v, ok, shard, serial)
	}
	if shard, serial := h.PutSharded(b, 30); shard != s.ShardOf(b) || serial == 0 {
		t.Errorf("PutSharded(b) = (%d,%d)", shard, serial)
	}
}
