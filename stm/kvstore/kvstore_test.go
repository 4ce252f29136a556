package kvstore

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// splitmix64 for seeded deterministic test workloads.
func testRand(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func snapshot(s Store) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	s.ForEach(func(k, v uint64) { m[k] = v })
	return m
}

func allBackends(t *testing.T, capacity, workers int) []Store {
	t.Helper()
	var out []Store
	for _, name := range Backends {
		s, err := New(name, capacity, workers)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestBackendEquivalence is the cross-backend property test: the same
// seeded operation sequence applied single-threaded must leave all three
// backends — and a plain reference map — with identical final KV state.
func TestBackendEquivalence(t *testing.T) {
	const (
		keyspace = 512
		ops      = 20000
		seed     = 42
	)
	ref := make(map[uint64]uint64)
	{
		rng := uint64(seed)
		for i := 0; i < ops; i++ {
			applyRefOp(&rng, ref, keyspace)
		}
	}
	for _, s := range allBackends(t, 2*keyspace, 1) {
		h := s.Handle(0)
		rng := uint64(seed)
		for i := 0; i < ops; i++ {
			applyStoreOp(t, &rng, h, keyspace)
		}
		if got := snapshot(s); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: final state diverges from reference (%d vs %d keys)",
				s.Name(), len(got), len(ref))
		}
		if st := s.Stats(); st.Commits == 0 {
			t.Errorf("%s: no commits recorded", s.Name())
		}
	}
}

// applyRefOp and applyStoreOp draw the identical op from the rng stream;
// keep their shapes in lockstep.
func applyRefOp(rng *uint64, m map[uint64]uint64, keyspace uint64) {
	switch op := testRand(rng) % 100; {
	case op < 25: // transactional read
		_ = m[1+testRand(rng)%keyspace]
	case op < 40: // point read
		_ = m[1+testRand(rng)%keyspace]
	case op < 60: // transactional write
		k := 1 + testRand(rng)%keyspace
		m[k] = testRand(rng)
	case op < 80: // point write
		k := 1 + testRand(rng)%keyspace
		m[k] = testRand(rng)
	default: // transfer between two keys
		a := 1 + testRand(rng)%keyspace
		b := 1 + testRand(rng)%keyspace
		if a == b {
			return
		}
		va, vb := m[a], m[b]
		if va == 0 {
			return
		}
		m[a], m[b] = va-1, vb+1
	}
}

func applyStoreOp(t *testing.T, rng *uint64, h Handle, keyspace uint64) {
	t.Helper()
	var err error
	switch op := testRand(rng) % 100; {
	case op < 25:
		k := 1 + testRand(rng)%keyspace
		var txv uint64
		var txok bool
		_, err = h.Txn(true, func(tx Tx) error {
			txv, txok = tx.Get(k)
			return nil
		})
		// Single-threaded, the point read must agree with the
		// transactional read it is a fast path for.
		if pv, pok, _ := h.Get(k); pv != txv || pok != txok {
			t.Fatalf("point Get(%d) = (%d,%v), Txn get = (%d,%v)", k, pv, pok, txv, txok)
		}
	case op < 40:
		k := 1 + testRand(rng)%keyspace
		h.Get(k)
	case op < 60:
		k := 1 + testRand(rng)%keyspace
		v := testRand(rng)
		_, err = h.Txn(false, func(tx Tx) error {
			tx.Put(k, v)
			return nil
		})
	case op < 80:
		k := 1 + testRand(rng)%keyspace
		v := testRand(rng)
		if serial := h.Put(k, v); serial == 0 {
			t.Fatalf("point Put(%d) returned serial 0", k)
		}
	default:
		a := 1 + testRand(rng)%keyspace
		b := 1 + testRand(rng)%keyspace
		if a == b {
			return
		}
		_, err = h.Txn(false, func(tx Tx) error {
			va, _ := tx.Get(a)
			vb, _ := tx.Get(b)
			if va == 0 {
				return nil
			}
			tx.Put(a, va-1)
			tx.Put(b, vb+1)
			return nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadYourWrites pins the in-transaction visibility contract on every
// backend, including the write-then-read-then-write interleavings the
// buffered backends get wrong most easily.
func TestReadYourWrites(t *testing.T) {
	for _, s := range allBackends(t, 64, 1) {
		h := s.Handle(0)
		if _, err := h.Txn(false, func(tx Tx) error {
			if _, ok := tx.Get(5); ok {
				return errors.New("phantom key")
			}
			tx.Put(5, 100)
			if v, ok := tx.Get(5); !ok || v != 100 {
				return fmt.Errorf("own write invisible: %d %v", v, ok)
			}
			tx.Put(5, 200)
			tx.Put(6, 300)
			if v, _ := tx.Get(5); v != 200 {
				return fmt.Errorf("own overwrite invisible: %d", v)
			}
			return nil
		}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
		if got := snapshot(s); got[5] != 200 || got[6] != 300 {
			t.Errorf("%s: committed state %v", s.Name(), got)
		}
	}
}

// TestErrorRollsBackAllBackends: a non-nil error from fn must leave no
// trace, on top of existing state.
func TestErrorRollsBackAllBackends(t *testing.T) {
	boom := errors.New("boom")
	for _, s := range allBackends(t, 64, 1) {
		h := s.Handle(0)
		if _, err := h.Txn(false, func(tx Tx) error {
			tx.Put(1, 11)
			return nil
		}); err != nil {
			t.Fatalf("%s: setup: %v", s.Name(), err)
		}
		if _, err := h.Txn(false, func(tx Tx) error {
			tx.Put(1, 999)
			tx.Put(2, 999)
			return boom
		}); !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v", s.Name(), err)
		}
		got := snapshot(s)
		if got[1] != 11 || got[2] != 0 {
			t.Errorf("%s: rollback left %v", s.Name(), got)
		}
	}
}

// TestSerialsIncrease: commits on one handle observe strictly increasing
// serials on every backend (writers draw fresh tickets).
func TestSerialsIncrease(t *testing.T) {
	for _, s := range allBackends(t, 64, 1) {
		h := s.Handle(0)
		var last uint64
		for i := uint64(1); i <= 10; i++ {
			serial, err := h.Txn(false, func(tx Tx) error {
				tx.Put(i, i)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if serial <= last {
				t.Errorf("%s: serial %d after %d", s.Name(), serial, last)
			}
			last = serial
		}
	}
}

// TestPointOps pins the point-op fast-path contract on every backend:
// Put's serial is a real write ticket (monotone across point and
// transactional writers), and Get observes the latest committed value.
func TestPointOps(t *testing.T) {
	for _, s := range allBackends(t, 64, 1) {
		h := s.Handle(0)
		if _, ok, _ := h.Get(7); ok {
			t.Errorf("%s: Get of absent key reports present", s.Name())
		}
		var last uint64
		for i := uint64(1); i <= 20; i++ {
			var serial uint64
			if i%2 == 0 {
				serial = h.Put(7, i)
			} else {
				var err error
				serial, err = h.Txn(false, func(tx Tx) error {
					tx.Put(7, i)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if serial <= last {
				t.Errorf("%s: write serial %d after %d", s.Name(), serial, last)
			}
			last = serial
			if v, ok, rs := h.Get(7); !ok || v != i {
				t.Errorf("%s: Get(7) = (%d,%v) after Put(7,%d)", s.Name(), v, ok, i)
			} else if rs < serial {
				t.Errorf("%s: Get serial %d predates the write it observed (%d)", s.Name(), rs, serial)
			}
		}
	}
}

// TestPutInReadOnlyPanics pins the readOnly hint contract.
func TestPutInReadOnlyPanics(t *testing.T) {
	for _, s := range allBackends(t, 64, 1) {
		h := s.Handle(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Put in readOnly txn did not panic", s.Name())
				}
			}()
			h.Txn(true, func(tx Tx) error {
				tx.Put(1, 1)
				return nil
			})
		}()
	}
}

func TestUnknownBackend(t *testing.T) {
	if _, err := New("nope", 8, 1); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestCeilPow2Boundary pins the shift-overflow guard: rounding stays exact
// through the largest power-of-two int, and one past it fails loudly instead
// of looping forever on `p <<= 1` overflow.
func TestCeilPow2Boundary(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8},
		{maxCapacity - 1, maxCapacity},
		{maxCapacity, maxCapacity},
	}
	for _, c := range cases {
		if got := ceilPow2(c.in); got != c.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ceilPow2(maxCapacity+1) did not panic")
		}
	}()
	ceilPow2(maxCapacity + 1)
}

// TestNewRejectsAbsurdCapacity checks the constructor surfaces the guard as
// an error instead of a panic.
func TestNewRejectsAbsurdCapacity(t *testing.T) {
	for _, name := range Backends {
		if _, err := New(name, maxCapacity+1, 1); err == nil {
			t.Errorf("New(%q, maxCapacity+1, 1) accepted an unbuildable capacity", name)
		}
	}
}

// TestProbeContract pins what every entry point does at the two ends of a
// probe chain: key 0 is refused on every backend, and on a linear-probing
// backend whose table is full a missing key panics naming the full table
// instead of probing forever.
func TestProbeContract(t *testing.T) {
	entries := []struct {
		name string
		op   func(h Handle, key uint64)
	}{
		{"Handle.Get", func(h Handle, key uint64) { h.Get(key) }},
		{"Handle.Put", func(h Handle, key uint64) { h.Put(key, 1) }},
		{"Txn.Get", func(h Handle, key uint64) {
			h.Txn(false, func(tx Tx) error { tx.Get(key); return nil })
		}},
		{"Txn.Put", func(h Handle, key uint64) {
			h.Txn(false, func(tx Tx) error { tx.Put(key, 1); return nil })
		}},
	}
	wantPanic := func(t *testing.T, fragment string, op func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), fragment) {
				t.Errorf("panic = %v, want one naming %q", r, fragment)
			}
		}()
		op()
	}
	for _, name := range Backends {
		for _, e := range entries {
			t.Run(name+"/zero-key/"+e.name, func(t *testing.T) {
				s, err := New(name, 4, 1)
				if err != nil {
					t.Fatal(err)
				}
				h := s.Handle(0)
				wantPanic(t, "zero key is reserved", func() { e.op(h, 0) })
			})
		}
	}
	for _, name := range []string{"stm", "tl2-occ"} {
		for _, e := range entries {
			t.Run(name+"/table-full/"+e.name, func(t *testing.T) {
				s, err := New(name, 4, 1)
				if err != nil {
					t.Fatal(err)
				}
				h := s.Handle(0)
				for k := uint64(1); k <= 4; k++ {
					h.Put(k, 10*k)
				}
				wantPanic(t, "table full", func() { e.op(h, 5) })
				if got := snapshot(s); len(got) != 4 {
					t.Fatalf("full table holds %v after the panic, want keys 1-4", got)
				}
			})
		}
	}
}

// TestTL2FullTableBehindBufferedInsert: a tl2-occ transaction whose second
// insert finds the table's one empty slot already claimed by its first must
// panic naming the full table. The claimed slot is the last one key 203's
// chain visits, which is where a chain that skipped it used to wrap and
// probe forever.
func TestTL2FullTableBehindBufferedInsert(t *testing.T) {
	s := NewTL2(4)
	h := s.Handle(0)
	for k := uint64(100); k < 103; k++ {
		h.Put(k, 1)
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		h.Txn(false, func(tx Tx) error {
			tx.Put(200, 1)
			tx.Put(203, 1)
			return nil
		})
	}()
	select {
	case r := <-done:
		if r == nil || !strings.Contains(fmt.Sprint(r), "table full") {
			t.Fatalf("panic = %v, want one naming the full table", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second insert is still probing after 10 s")
	}
}
