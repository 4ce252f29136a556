package kvstore

import "tokentm/stm"

// stmStore maps the KV table onto a stm.TM: one linear-probing slot per
// conflict-detection block, key in word 0 and value in word 1. Independent
// keys therefore conflict only when their probe paths overlap on a terminal
// slot — exactly the precise, block-granular conflict detection the token
// protocol is for.
//
// The table is insert-only, so a committed key word is immutable: probing
// PAST an occupied, non-matching slot is insensitive to serialization order.
// The key word is therefore the guard of stm.Tx.Lookup2 and stm.Tx.Upsert2,
// which examine each probed slot once: a slot holding another key leaves no
// footprint (no read token, no logged stamp another key's update could
// invalidate), and the terminal slot — the match whose value is returned or
// written, or the empty slot that ends the chain — is read or claimed under
// the transaction's protocol (token, or stamp validation on an invisible
// attempt). A read-modify-write of a key the transaction already read takes
// the read-to-write upgrade path: the token fold-in wherever the read took a
// token (retries), a stamp-checked fresh claim on a first attempt. The load
// generator's transfer mix exercises both continuously.
type stmStore struct {
	tm   *stm.TM
	mask uint64
}

// NewSTM builds the TokenTM-backend store with the given slot capacity
// (rounded up to a power of two) for up to workers concurrent handles,
// retrying conflicted transactions forever.
func NewSTM(capacity, workers int) Store {
	return NewSTMWithOptions(capacity, workers, stm.Options{})
}

// NewSTMWithOptions is NewSTM with explicit stm.Options. NewSharded builds
// the server's store through this so MaxAttempts bounds every transaction's
// retries.
func NewSTMWithOptions(capacity, workers int, opt stm.Options) Store {
	n := ceilPow2(capacity)
	return &stmStore{
		tm:   stm.NewWithOptions(n, 2, workers, opt),
		mask: uint64(n - 1),
	}
}

func (s *stmStore) Name() string { return "stm" }

// probe returns the i-th slot of key's linear-probing chain. It is the one
// place this backend refuses the zero key and a chain that has visited
// every slot.
func (s *stmStore) probe(key, i uint64) uint64 {
	if key == 0 {
		panic("kvstore: zero key is reserved")
	}
	if i > s.mask {
		panic(tableFull{"stm", key})
	}
	return (hashKey(key) + i) & s.mask
}

func (s *stmStore) Handle(worker int) Handle {
	h := &stmHandle{st: s, th: s.tm.Thread(worker)}
	h.tx.st = s
	h.bound = func(itx *stm.Tx) error {
		h.tx.itx = itx
		return h.fn(&h.tx)
	}
	return h
}

func (s *stmStore) ForEach(fn func(key, val uint64)) {
	for slot := uint64(0); slot <= s.mask; slot++ {
		if k := s.tm.LoadWord(stm.Addr(2 * slot)); k != 0 {
			fn(k, s.tm.LoadWord(stm.Addr(2*slot+1)))
		}
	}
}

func (s *stmStore) Stats() Stats {
	st := s.tm.Stats()
	return Stats{Commits: st.Commits, Aborts: st.Aborts}
}

// STMStats exposes the underlying protocol counters (upgrades, conflict
// kinds, fast releases) for INFO and benchmark reporting. Single-writer
// atomics underneath: safe to call while workers run, per-field exact.
func (s *stmStore) STMStats() stm.Stats { return s.tm.Stats() }

// stmHandle binds one stm.Thread. The bound closure is built once so the
// per-transaction path allocates nothing.
type stmHandle struct {
	st    *stmStore
	th    *stm.Thread
	tx    stmTx
	fn    func(Tx) error
	bound func(*stm.Tx) error
}

func (h *stmHandle) Txn(readOnly bool, fn func(tx Tx) error) (uint64, error) {
	h.fn = fn
	h.tx.readOnly = readOnly
	if readOnly {
		return h.th.ReadOnly(h.bound)
	}
	return h.th.Atomically(h.bound)
}

// Get probes with non-transactional single-block snapshot reads. The table
// is insert-only, so crossed slots need no validation against each other;
// the terminal slot's snapshot alone decides the answer, and its
// writer-release stamp is the serial a one-block read-only transaction
// committing there would return.
func (h *stmHandle) Get(key uint64) (val uint64, ok bool, serial uint64) {
	for i := uint64(0); ; i++ {
		slot := h.st.probe(key, i)
		k, v, s := h.th.Snapshot2(stm.Addr(2*slot), stm.Addr(2*slot+1))
		if k == key {
			h.th.NoteCommit()
			return v, true, s
		}
		if k == 0 {
			h.th.NoteCommit()
			return 0, false, s
		}
	}
}

// Put probes like Get and claims the terminal slot with stm.Thread.Upsert2,
// a one-block write transaction. The first slot is tried claim-first — at
// moderate load factors it is usually the terminal one, and Upsert2's own
// guard read replaces a separate peek; a skipped claim (a different key
// committed there) just probes on.
func (h *stmHandle) Put(key, val uint64) uint64 {
	for i := uint64(0); ; i++ {
		slot := h.st.probe(key, i)
		if i > 0 {
			// Deeper in the chain a peek is cheaper than a claim: skip
			// committed foreign keys without touching the metadata word.
			if k, _, _ := h.th.Snapshot2(stm.Addr(2*slot), stm.Addr(2*slot+1)); k != key && k != 0 {
				continue
			}
		}
		if done, serial := h.th.Upsert2(stm.Addr(2*slot), stm.Addr(2*slot+1), key, val); done {
			return serial
		}
	}
}

// stmTx adapts a stm.Tx to the KV operation set.
type stmTx struct {
	st       *stmStore
	itx      *stm.Tx
	readOnly bool
}

func (t *stmTx) Get(key uint64) (uint64, bool) {
	for i := uint64(0); ; i++ {
		slot := t.st.probe(key, i)
		switch k, v := t.itx.Lookup2(stm.Addr(2*slot), stm.Addr(2*slot+1), key); k {
		case key:
			return v, true
		case 0:
			return 0, false
		}
	}
}

func (t *stmTx) Put(key, val uint64) {
	if t.readOnly {
		panic("kvstore: Put inside readOnly transaction")
	}
	for i := uint64(0); ; i++ {
		slot := t.st.probe(key, i)
		if t.itx.Upsert2(stm.Addr(2*slot), stm.Addr(2*slot+1), key, val) {
			return
		}
	}
}
