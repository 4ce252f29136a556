package kvstore

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// tl2Store is a TL2-style optimistic (lazy, invisible-reader) backend: the
// validation-based design the token protocol's progressive conflict
// detection is measured against. Each slot carries a versioned lock word
// (version<<1 | locked); transactions read a global version clock at begin
// (rv), validate every read against it, buffer writes, and at commit lock
// the write set in slot order, draw a write version (wv) from the clock,
// re-validate the read set and write back. Readers are invisible — they
// never write shared metadata, the structural opposite of the token
// scheme's visible reader counts — so writers cannot detect them and
// conflicts surface only at validation time.
type tl2Store struct {
	mask  uint64
	keys  []atomic.Uint64
	vals  []atomic.Uint64
	locks []atomic.Uint64 // version<<1 | locked
	clock atomic.Uint64

	commits atomic.Uint64
	aborts  atomic.Uint64
}

// NewTL2 builds the TL2-OCC backend with the given slot capacity (rounded
// up to a power of two).
func NewTL2(capacity int) Store {
	n := ceilPow2(capacity)
	return &tl2Store{
		mask:  uint64(n - 1),
		keys:  make([]atomic.Uint64, n),
		vals:  make([]atomic.Uint64, n),
		locks: make([]atomic.Uint64, n),
	}
}

func (s *tl2Store) Name() string { return "tl2-occ" }

// probe returns the i-th slot of key's linear-probing chain. It is the one
// place this backend refuses the zero key and a chain that has visited
// every slot.
func (s *tl2Store) probe(key, i uint64) uint64 {
	if key == 0 {
		panic("kvstore: zero key is reserved")
	}
	if i > s.mask {
		panic(tableFull{"tl2", key})
	}
	return (hashKey(key) + i) & s.mask
}

func (s *tl2Store) Handle(worker int) Handle {
	h := &tl2Handle{}
	h.tx.st = s
	h.tx.rng = uint64(worker)*0x9e3779b97f4a7c15 + 1
	return h
}

func (s *tl2Store) ForEach(fn func(key, val uint64)) {
	for i := range s.keys {
		if k := s.keys[i].Load(); k != 0 {
			fn(k, s.vals[i].Load())
		}
	}
}

func (s *tl2Store) Stats() Stats {
	return Stats{Commits: s.commits.Load(), Aborts: s.aborts.Load()}
}

// tl2Retry unwinds fn when a read validation fails mid-transaction.
type tl2Retry struct{}

type tl2Handle struct {
	tx tl2Tx
}

func (h *tl2Handle) Txn(readOnly bool, fn func(tx Tx) error) (uint64, error) {
	t := &h.tx
	t.readOnly = readOnly
	for retries := 0; ; retries++ {
		serial, err, done := h.attempt(fn)
		if done {
			return serial, err
		}
		t.st.aborts.Add(1)
		t.backoff(retries)
	}
}

// Get is a read-only transaction with an empty tracked read set: each probe
// is individually lock-stable and no newer than rv, and since there is no
// commit-time validation for a read-only footprint, nothing needs appending.
// A validation failure just refreshes rv and reprobes.
func (h *tl2Handle) Get(key uint64) (val uint64, ok bool, serial uint64) {
	st := h.tx.st
retry:
	rv := st.clock.Load()
	for i := uint64(0); ; i++ {
		slot := st.probe(key, i)
		w1 := st.locks[slot].Load()
		if w1&1 == 1 {
			// A commit holds the slot and its owner may be switched out:
			// yield rather than spin for a whole timeslice.
			runtime.Gosched()
			goto retry
		}
		if w1>>1 > rv {
			goto retry
		}
		k := st.keys[slot].Load()
		v := st.vals[slot].Load()
		if st.locks[slot].Load() != w1 {
			goto retry
		}
		if k == key {
			st.commits.Add(1)
			return v, true, rv
		}
		if k == 0 {
			st.commits.Add(1)
			return 0, false, rv
		}
	}
}

// Put probes with lock-stable reads (no read clock: a blind write needs no
// snapshot), locks the terminal slot, writes through and releases with a
// fresh write version.
func (h *tl2Handle) Put(key, val uint64) uint64 {
	st := h.tx.st
retry:
	for i := uint64(0); ; i++ {
		slot := st.probe(key, i)
		w1 := st.locks[slot].Load()
		if w1&1 == 1 {
			runtime.Gosched() // a commit is in flight on this slot (see Get)
			goto retry
		}
		k := st.keys[slot].Load()
		if st.locks[slot].Load() != w1 {
			goto retry
		}
		if k == key || k == 0 {
			if !st.locks[slot].CompareAndSwap(w1, w1|1) {
				goto retry // lost the slot: reprobe from scratch
			}
			// The CAS from w1 pins the slot unchanged since the stable read,
			// so k still holds.
			if k == 0 {
				st.keys[slot].Store(key)
			}
			st.vals[slot].Store(val)
			wv := st.clock.Add(1)
			st.locks[slot].Store(wv << 1)
			st.commits.Add(1)
			return wv
		}
	}
}

// attempt runs fn once against a fresh read clock. done is false when the
// attempt lost a validation race and the transaction must retry.
func (h *tl2Handle) attempt(fn func(tx Tx) error) (serial uint64, err error, done bool) {
	t := &h.tx
	t.rv = t.st.clock.Load()
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(tl2Retry); ok {
				done = false
				return
			}
			panic(r)
		}
	}()
	if err = fn(t); err != nil {
		return 0, err, true // rollback is free: writes were never applied
	}
	serial, ok := t.commit()
	return serial, nil, ok
}

// tl2Write is one buffered write, bound to the slot its key probed to.
type tl2Write struct {
	slot uint64
	key  uint64
	val  uint64
}

type tl2Tx struct {
	st       *tl2Store
	readOnly bool
	rv       uint64
	reads    []uint64 // validated slots (duplicates harmless)
	writes   []tl2Write
	rng      uint64
}

// readSlot performs one validated slot read: consistent (lock-stable) and
// no newer than the transaction's read clock. Failures unwind via tl2Retry.
func (t *tl2Tx) readSlot(slot uint64) (key, val uint64) {
	st := t.st
	for {
		w1 := st.locks[slot].Load()
		if w1&1 == 1 {
			panic(tl2Retry{}) // locked: a commit is in flight
		}
		k := st.keys[slot].Load()
		v := st.vals[slot].Load()
		if st.locks[slot].Load() != w1 {
			continue // changed under us: re-read
		}
		if w1>>1 > t.rv {
			panic(tl2Retry{}) // newer than our snapshot
		}
		t.reads = append(t.reads, slot)
		return k, v
	}
}

func (t *tl2Tx) Get(key uint64) (uint64, bool) {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].key == key {
			return t.writes[i].val, true
		}
	}
	for i := uint64(0); ; i++ {
		k, v := t.readSlot(t.st.probe(key, i))
		if k == 0 {
			return 0, false
		}
		if k == key {
			return v, true
		}
	}
}

func (t *tl2Tx) Put(key, val uint64) {
	if t.readOnly {
		panic("kvstore: Put inside readOnly transaction")
	}
	for i := range t.writes {
		if t.writes[i].key == key {
			t.writes[i].val = val
			return
		}
	}
	for i := uint64(0); ; i++ {
		slot := t.st.probe(key, i)
		k, _ := t.readSlot(slot) // probe reads join the read set: the slot
		// binding is revalidated at commit
		if k == key {
			t.writes = append(t.writes, tl2Write{slot: slot, key: key, val: val})
			return
		}
		if k == 0 {
			if t.slotClaimed(slot) {
				continue // an earlier buffered insert owns this empty slot
			}
			t.writes = append(t.writes, tl2Write{slot: slot, key: key, val: val})
			return
		}
	}
}

// slotClaimed reports whether an already-buffered write targets slot.
func (t *tl2Tx) slotClaimed(slot uint64) bool {
	for i := range t.writes {
		if t.writes[i].slot == slot {
			return true
		}
	}
	return false
}

// commit locks the write set in slot order, draws wv, validates the read
// set and writes back. ok is false when a lock or validation race forces a
// retry.
func (t *tl2Tx) commit() (serial uint64, ok bool) {
	st := t.st
	if len(t.writes) == 0 {
		// Read-only: every read was individually validated against rv, so
		// the whole footprint is a consistent snapshot at rv — the
		// serialization point.
		st.commits.Add(1)
		return t.rv, true
	}
	sort.Slice(t.writes, func(i, j int) bool { return t.writes[i].slot < t.writes[j].slot })
	locked := 0
	for ; locked < len(t.writes); locked++ {
		if !t.lockSlot(t.writes[locked].slot) {
			t.unlockThrough(locked, 0)
			return 0, false
		}
	}
	wv := st.clock.Add(1)
	for _, slot := range t.reads {
		w := st.locks[slot].Load()
		if w&1 == 1 {
			if !t.slotClaimed(slot) {
				t.unlockThrough(locked, 0)
				return 0, false // locked by a concurrent committer
			}
			continue // our own lock preserved the pre-lock version below
		}
		if w>>1 > t.rv {
			t.unlockThrough(locked, 0)
			return 0, false // written since we read it
		}
	}
	for i := range t.writes {
		w := &t.writes[i]
		st.keys[w.slot].Store(w.key)
		st.vals[w.slot].Store(w.val)
	}
	t.unlockThrough(locked, wv)
	st.commits.Add(1)
	return wv, true
}

// lockSlot acquires slot's versioned lock with a short bounded spin. The
// CAS preserves the version bits, so a held lock still reveals the pre-lock
// version to validators.
func (t *tl2Tx) lockSlot(slot uint64) bool {
	st := t.st
	for spin := 0; spin < 16; spin++ {
		w := st.locks[slot].Load()
		if w&1 == 0 {
			if w>>1 > t.rv {
				return false // newer than our snapshot: validation would fail
			}
			if st.locks[slot].CompareAndSwap(w, w|1) {
				return true
			}
			continue
		}
		runtime.Gosched()
	}
	return false
}

// unlockThrough releases the first n locked write slots. A zero wv aborts
// (restore the pre-lock version); a non-zero wv commits it as the slots'
// new version.
func (t *tl2Tx) unlockThrough(n int, wv uint64) {
	st := t.st
	for i := 0; i < n; i++ {
		slot := t.writes[i].slot
		if wv != 0 {
			st.locks[slot].Store(wv << 1)
		} else {
			st.locks[slot].Store(st.locks[slot].Load() &^ 1)
		}
	}
}

// backoff delays a retry: bounded exponential with splitmix jitter, as in
// package stm.
func (t *tl2Tx) backoff(retries int) {
	shift := retries
	if shift > 6 {
		shift = 6
	}
	n := uint64(1) << shift
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	n += z & (n - 1)
	for i := uint64(0); i < n; i++ {
		runtime.Gosched()
	}
}
