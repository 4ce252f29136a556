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

// BenchmarkTxnLarge is the inproc-large transaction shape on one worker: 32
// Gets, then a rewrite of 8 of the keys just read (an upgrade each on the
// stm backend). It is cmd/tokentm-bench's kvstore.txn_large_ns, with uniform
// keys where the benchmark draws zipf ones, and the rwmutex sub-benchmark is
// the gap's denominator (kvstore.large_gap_ratio).
func BenchmarkTxnLarge(b *testing.B) {
	for _, n := range Backends {
		b.Run(n, func(b *testing.B) {
			h := benchStore(b, n)
			var k uint64
			fn := func(tx Tx) error {
				var keys [32]uint64
				var sum uint64
				for j := range keys {
					keys[j] = (k+uint64(j)*0x9E3779B1)%32768 + 1
					v, _ := tx.Get(keys[j])
					sum += v
				}
				for _, key := range keys[:8] {
					tx.Put(key, sum)
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k += 0x85EBCA6B
				h.Txn(false, fn)
			}
		})
	}
}
