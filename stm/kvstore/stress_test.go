package kvstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"tokentm/stm"
)

// This file is the host-side twin of internal/explore's oracle: run real
// goroutines against each backend, journal every committed transaction's
// observed reads and final writes, then replay the journals in commit-serial
// order against a reference map (ReplayJournals in oracle.go — exported so
// the server's over-the-wire stress reuses it). Every journaled read must
// equal the reference at its serialization point, and the store's final
// state must match the reference — serializability and atomicity, checked
// end to end. Run under -race this also proves the token/lock protocols
// publish data with proper happens-before edges.

// journalTx wraps a backend Tx, recording reads of keys the transaction has
// not itself written (later reads of own writes are satisfied by the
// backend's read-your-writes and say nothing about the serialization point).
type journalTx struct {
	inner  Tx
	reads  []JournalOp
	writes []JournalOp
}

func (j *journalTx) wrote(key uint64) bool {
	for i := range j.writes {
		if j.writes[i].Key == key {
			return true
		}
	}
	return false
}

func (j *journalTx) Get(key uint64) (uint64, bool) {
	v, ok := j.inner.Get(key)
	if !j.wrote(key) {
		j.reads = append(j.reads, JournalOp{Key: key, Val: v, OK: ok})
	}
	return v, ok
}

func (j *journalTx) Put(key, val uint64) {
	j.inner.Put(key, val)
	for i := range j.writes {
		if j.writes[i].Key == key {
			j.writes[i].Val = val
			return
		}
	}
	j.writes = append(j.writes, JournalOp{Key: key, Val: val, OK: true})
}

// journaledTxn runs fn through h with journaling and appends the committed
// record to out. The journal resets on every attempt, so only the committed
// execution survives. A sharded handle runs it through TxnSerials, the
// server's path, and the record takes the serial of the checked vector.
func journaledTxn(h Handle, readOnly bool, fn func(Tx) error, out *[]JournalTxn) error {
	var j journalTx
	body := func(tx Tx) error {
		j.inner = tx
		j.reads = j.reads[:0]
		j.writes = j.writes[:0]
		return fn(&j)
	}
	var serial uint64
	var err error
	if sh, ok := h.(*ShardedHandle); ok {
		var serials []uint64
		if serials, err = sh.TxnSerials(readOnly, body); err == nil {
			serial, err = vectorSerial(sh.mtx.s, serials, slices.Concat(j.reads, j.writes))
		}
	} else {
		serial, err = h.Txn(readOnly, body)
	}
	if err != nil {
		return err
	}
	rec := JournalTxn{Serial: serial, Writer: len(j.writes) > 0}
	rec.Reads = append(rec.Reads, j.reads...)
	rec.Writes = append(rec.Writes, j.writes...)
	*out = append(*out, rec)
	return nil
}

// vectorSerial checks a TxnSerials vector against the operations of the
// attempt that committed and returns its serial: every nonzero slot holds
// the one commit serial, and the nonzero slots are exactly the shards of
// ops. A read-only commit before any write has serial 0 in every slot.
func vectorSerial(s *Sharded, serials []uint64, ops []JournalOp) (uint64, error) {
	serial := slices.Max(serials)
	for i, v := range serials {
		used := slices.ContainsFunc(ops, func(op JournalOp) bool { return s.ShardOf(op.Key) == i })
		if v != 0 && v != serial || serial != 0 && used != (v != 0) {
			return 0, fmt.Errorf("serial vector %v does not mark exactly the shards of %v", serials, ops)
		}
	}
	return serial, nil
}

// replayJournals is the test-side wrapper over the exported oracle.
func replayJournals(t *testing.T, name string, journals [][]JournalTxn) map[uint64]uint64 {
	t.Helper()
	ref, err := ReplayJournals(journals)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ref
}

// stressWorkload runs one worker's seeded mix: updates, blind inserts,
// two-key transfers and a periodic multi-key batch, skewed so a fifth of
// the traffic lands on eight hot keys.
func stressWorkload(t *testing.T, h Handle, worker, txns int, keyspace uint64, journal *[]JournalTxn) {
	rng := uint64(worker)*0x9e3779b97f4a7c15 + 12345
	key := func() uint64 {
		if testRand(&rng)%5 == 0 {
			return 1 + testRand(&rng)%8 // hot set
		}
		return 1 + testRand(&rng)%keyspace
	}
	for i := 0; i < txns; i++ {
		var err error
		switch op := testRand(&rng) % 100; {
		case op < 20: // read-only lookup
			k := key()
			err = journaledTxn(h, true, func(tx Tx) error {
				tx.Get(k)
				return nil
			}, journal)
		case op < 35: // point read: the serial it reports must satisfy the
			// same replay invariant as a full read-only transaction
			k := key()
			v, ok, serial := h.Get(k)
			*journal = append(*journal, JournalTxn{Serial: serial,
				Reads: []JournalOp{{Key: k, Val: v, OK: ok}}})
		case op < 50: // point write
			k, v := key(), testRand(&rng)
			serial := h.Put(k, v)
			*journal = append(*journal, JournalTxn{Serial: serial, Writer: true,
				Writes: []JournalOp{{Key: k, Val: v, OK: true}}})
		case op < 65: // read-modify-write (upgrade path on the stm backend)
			k := key()
			err = journaledTxn(h, false, func(tx Tx) error {
				v, _ := tx.Get(k)
				tx.Put(k, v+1)
				return nil
			}, journal)
		case op < 90: // two-key transfer
			a, b := key(), key()
			if a == b {
				continue
			}
			err = journaledTxn(h, false, func(tx Tx) error {
				va, _ := tx.Get(a)
				vb, _ := tx.Get(b)
				tx.Put(a, va+1)
				tx.Put(b, vb+1)
				return nil
			}, journal)
		default: // multi-key batch: read 12, write 4
			base := key()
			err = journaledTxn(h, false, func(tx Tx) error {
				var sum uint64
				for j := uint64(0); j < 12; j++ {
					v, _ := tx.Get(1 + (base+j-1)%keyspace)
					sum += v
				}
				for j := uint64(0); j < 4; j++ {
					tx.Put(1+(base+j-1)%keyspace, sum+j)
				}
				return nil
			}, journal)
		}
		if err != nil {
			t.Errorf("worker %d: %v", worker, err)
			return
		}
	}
}

// TestStressSerializability is the race-enabled stress + oracle suite for
// every backend and the sharded store: N goroutines of mixed traffic, then
// the journal replay and a final-state comparison. The sharded row's
// transactions cross shards; its one clock makes their serials one order,
// so its journals merge like any other store's.
func TestStressSerializability(t *testing.T) {
	const (
		workers  = 8
		keyspace = 256
	)
	txns := 1500
	if testing.Short() {
		txns = 300
	}
	stores := append(allBackends(t, 4*keyspace, workers), NewSharded(4, 8*keyspace, workers, stm.Options{}))
	for _, s := range stores {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			journals := make([][]JournalTxn, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				h := s.Handle(w)
				wg.Add(1)
				go func() {
					defer wg.Done()
					stressWorkload(t, h, w, txns, keyspace, &journals[w])
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			ref := replayJournals(t, s.Name(), journals)
			got := snapshot(s)
			if len(got) != len(ref) {
				t.Fatalf("%s: final state has %d keys, serial replay has %d", s.Name(), len(got), len(ref))
			}
			for k, v := range ref {
				if got[k] != v {
					t.Fatalf("%s: final state key %d = %d, serial replay has %d", s.Name(), k, got[k], v)
				}
			}
			st := s.Stats()
			var committed int
			for _, j := range journals {
				committed += len(j)
			}
			if st.Commits != uint64(committed) {
				t.Errorf("%s: stats report %d commits, journals hold %d", s.Name(), st.Commits, committed)
			}
			t.Logf("%s: %d commits, %d aborts (rate %.3f)", s.Name(), st.Commits, st.Aborts, st.AbortRate())
		})
	}
}
