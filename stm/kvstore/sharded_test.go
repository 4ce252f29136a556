package kvstore

// Sharded-store tests: routing/partition sanity, cross-shard atomicity,
// equivalence with the unsharded backend under a seeded single-threaded
// stream (same final checksum), and the race-enabled per-shard journal
// stress — each shard's journal replayed independently through the oracle,
// which only holds if the Group commit keeps the per-shard serial orders
// mutually consistent.

import (
	"errors"
	"reflect"
	"sync"
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
	var touched int
	for i, serial := range serials {
		if serial != 0 {
			touched++
			if clock := s.ShardSerial(i); clock != serial {
				t.Errorf("shard %d clock %d != drawn serial %d", i, clock, serial)
			}
		}
	}
	if touched != 2 {
		t.Errorf("cross-shard txn touched %d shards, want 2 (serials %v)", touched, serials)
	}

	// Txn's single-serial contract: 0 for multi-shard, nonzero for one shard.
	if serial, err := h.Txn(false, func(tx Tx) error {
		tx.Put(a, 11)
		tx.Put(b, 21)
		return nil
	}); err != nil || serial != 0 {
		t.Errorf("multi-shard Txn = (%d, %v), want (0, nil)", serial, err)
	}
	if serial, err := h.Txn(false, func(tx Tx) error {
		tx.Put(a, 12)
		return nil
	}); err != nil || serial == 0 {
		t.Errorf("single-shard Txn = (%d, %v), want (nonzero, nil)", serial, err)
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

// shardJournal tags every operation of a sharded transaction with its owning
// shard so the commit can be journaled per shard under that shard's serial.
type shardJournal struct {
	s     *Sharded
	inner Tx
	reads []struct {
		shard int
		op    JournalOp
	}
	writes []struct {
		shard int
		op    JournalOp
	}
}

func (j *shardJournal) wrote(key uint64) bool {
	for i := range j.writes {
		if j.writes[i].op.Key == key {
			return true
		}
	}
	return false
}

func (j *shardJournal) Get(key uint64) (uint64, bool) {
	v, ok := j.inner.Get(key)
	if !j.wrote(key) {
		j.reads = append(j.reads, struct {
			shard int
			op    JournalOp
		}{j.s.ShardOf(key), JournalOp{Key: key, Val: v, OK: ok}})
	}
	return v, ok
}

func (j *shardJournal) Put(key, val uint64) {
	j.inner.Put(key, val)
	for i := range j.writes {
		if j.writes[i].op.Key == key {
			j.writes[i].op.Val = val
			return
		}
	}
	j.writes = append(j.writes, struct {
		shard int
		op    JournalOp
	}{j.s.ShardOf(key), JournalOp{Key: key, Val: val, OK: true}})
}

// journaledShardedTxn runs fn with per-shard journaling: the committed
// transaction appends one JournalTxn per touched shard, carrying that
// shard's operations under that shard's serial, to out[shard].
func journaledShardedTxn(s *Sharded, h *ShardedHandle, readOnly bool, fn func(Tx) error, out [][]JournalTxn) error {
	j := shardJournal{s: s}
	serials, err := h.TxnSerials(readOnly, func(tx Tx) error {
		j.inner = tx
		j.reads = j.reads[:0]
		j.writes = j.writes[:0]
		return fn(&j)
	})
	if err != nil {
		return err
	}
	for shard, serial := range serials {
		if serial == 0 {
			continue
		}
		rec := JournalTxn{Serial: serial}
		for _, r := range j.reads {
			if r.shard == shard {
				rec.Reads = append(rec.Reads, r.op)
			}
		}
		for _, w := range j.writes {
			if w.shard == shard {
				rec.Writes = append(rec.Writes, w.op)
				rec.Writer = true
			}
		}
		out[shard] = append(out[shard], rec)
	}
	return nil
}

// TestShardedStressSerializability is the sharded twin of
// TestStressSerializability: concurrent mixed traffic (point ops and
// cross-shard transactions), journaled per shard, each shard's journal
// replayed independently through the oracle, plus a final-state comparison
// against the union of the per-shard replays. Run with -race.
func TestShardedStressSerializability(t *testing.T) {
	const (
		workers  = 8
		shards   = 4
		keyspace = 256
	)
	txns := 1200
	if testing.Short() {
		txns = 250
	}
	s := NewSharded(shards, 8*keyspace, workers, stm.Options{})
	// journals[w][shard] — merged across workers per shard before replay.
	journals := make([][][]JournalTxn, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		h := s.Handle(w).(*ShardedHandle)
		journals[w] = make([][]JournalTxn, shards)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 99
			key := func() uint64 {
				if testRand(&rng)%5 == 0 {
					return 1 + testRand(&rng)%8 // hot set
				}
				return 1 + testRand(&rng)%keyspace
			}
			for i := 0; i < txns; i++ {
				var err error
				switch op := testRand(&rng) % 100; {
				case op < 25: // point read
					k := key()
					v, ok, shard, serial := h.GetSharded(k)
					journals[w][shard] = append(journals[w][shard], JournalTxn{
						Serial: serial, Reads: []JournalOp{{Key: k, Val: v, OK: ok}}})
				case op < 45: // point write
					k, v := key(), testRand(&rng)
					shard, serial := h.PutSharded(k, v)
					journals[w][shard] = append(journals[w][shard], JournalTxn{
						Serial: serial, Writer: true,
						Writes: []JournalOp{{Key: k, Val: v, OK: true}}})
				case op < 65: // read-modify-write
					k := key()
					err = journaledShardedTxn(s, h, false, func(tx Tx) error {
						v, _ := tx.Get(k)
						tx.Put(k, v+1)
						return nil
					}, journals[w])
				case op < 90: // cross-shard transfer
					a, b := key(), key()
					if a == b {
						continue
					}
					err = journaledShardedTxn(s, h, false, func(tx Tx) error {
						va, _ := tx.Get(a)
						vb, _ := tx.Get(b)
						tx.Put(a, va+1)
						tx.Put(b, vb+1)
						return nil
					}, journals[w])
				default: // multi-key batch spanning shards: read 10, write 4
					base := key()
					err = journaledShardedTxn(s, h, false, func(tx Tx) error {
						var sum uint64
						for j := uint64(0); j < 10; j++ {
							v, _ := tx.Get(1 + (base+j-1)%keyspace)
							sum += v
						}
						for j := uint64(0); j < 4; j++ {
							tx.Put(1+(base+j-1)%keyspace, sum+j)
						}
						return nil
					}, journals[w])
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	ref := make(map[uint64]uint64)
	for shard := 0; shard < shards; shard++ {
		perWorker := make([][]JournalTxn, workers)
		for w := 0; w < workers; w++ {
			perWorker[w] = journals[w][shard]
		}
		shardRef, err := ReplayJournals(perWorker)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		for k, v := range shardRef {
			if got := s.ShardOf(k); got != shard {
				t.Fatalf("key %d journaled on shard %d but routes to %d", k, shard, got)
			}
			ref[k] = v
		}
	}
	got := snapshot(s)
	if len(got) != len(ref) {
		t.Fatalf("final state has %d keys, per-shard replay has %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("final state key %d = %d, replay has %d", k, got[k], v)
		}
	}
	st := s.Stats()
	if st.Commits == 0 {
		t.Fatal("no commits recorded")
	}
	t.Logf("sharded: %d commits, %d aborts (rate %.3f)", st.Commits, st.Aborts, st.AbortRate())
}
