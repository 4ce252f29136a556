package kvstore

import "testing"

// Single-worker per-operation microbenchmarks over every backend, one
// sub-benchmark per backend so `go test -bench` output is directly
// benchstat-comparable across runs (see EXPERIMENTS.md). The loadgen
// package measures the contended mixes; these isolate the per-op floor.

func benchStore(b *testing.B, name string) Handle {
	b.Helper()
	s, err := New(name, 65536, 1)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handle(0)
	for k := uint64(1); k <= 32768; k += 64 {
		lo := k
		if _, err := h.Txn(false, func(tx Tx) error {
			for j := lo; j < lo+64; j++ {
				tx.Put(j, j)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func benchOp(b *testing.B, name, op string) {
	h := benchStore(b, name)
	var k uint64
	get := func(tx Tx) error { tx.Get(k%32768 + 1); return nil }
	put := func(tx Tx) error { tx.Put(k%32768+1, k); return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k += 0x9E3779B1
		switch op {
		case "txn-get":
			h.Txn(true, get)
		case "txn-put":
			h.Txn(false, put)
		case "point-get":
			h.Get(k%32768 + 1)
		case "point-put":
			h.Put(k%32768+1, k)
		}
	}
}

func BenchmarkTxnGet(b *testing.B) {
	for _, n := range Backends {
		b.Run(n, func(b *testing.B) { benchOp(b, n, "txn-get") })
	}
}

func BenchmarkTxnPut(b *testing.B) {
	for _, n := range Backends {
		b.Run(n, func(b *testing.B) { benchOp(b, n, "txn-put") })
	}
}

func BenchmarkPointGet(b *testing.B) {
	for _, n := range Backends {
		b.Run(n, func(b *testing.B) { benchOp(b, n, "point-get") })
	}
}

func BenchmarkPointPut(b *testing.B) {
	for _, n := range Backends {
		b.Run(n, func(b *testing.B) { benchOp(b, n, "point-put") })
	}
}
