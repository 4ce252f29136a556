package main

import "tokentm/stm/kvstore"

// applier replays stream requests against one kvstore.Handle. The same code
// drives the in-process system under test, the rwmutex reference store of
// the verify segment, and the kvstore rungs of the layer ladder, so "the
// workload's own mix" means one thing everywhere. Transaction closures are
// built once and parameterized through fields (the server's own idiom), so
// a replayed request allocates nothing.
type applier struct {
	h kvstore.Handle
	w workload

	// fold accumulates every value a request read (and whether the key was
	// present): two stores that agree on it returned the same reads.
	fold   uint64
	failed uint64

	keys    []uint32 // current transaction's keys
	pair    [2]uint32
	vals    []uint32 // current transaction's blind values
	txFold  uint64   // fold of the attempt in flight (reset per attempt)
	rd      [64]uint64
	moves   int // moveFn: how many of the leading keys are rewritten
	multiFn func(kvstore.Tx) error
	moveFn  func(kvstore.Tx) error

	// Traced runs wrap 1-in-txnSpanEvery transactions so each tx.Get and
	// tx.Put becomes a child span of the kvstore.Handle.Txn span.
	tr    *tracer
	txSeq uint64
	ttx   tracedTx
	inner func(kvstore.Tx) error
	wrap  func(kvstore.Tx) error
}

const foldPrime = 1099511628211

func foldRead(f, v uint64, ok bool) uint64 {
	if ok {
		v ^= 1 << 63
	}
	return (f ^ v) * foldPrime
}

func newApplier(h kvstore.Handle, w workload) *applier {
	a := &applier{h: h, w: w}
	a.multiFn = func(tx kvstore.Tx) error {
		a.txFold = 0
		for _, k := range a.keys {
			v, ok := tx.Get(uint64(k))
			a.txFold = foldRead(a.txFold, v, ok)
		}
		for j, v := range a.vals {
			tx.Put(uint64(a.keys[j]), uint64(v))
		}
		return nil
	}
	// moveFn reads every key, then moves one unit from the first to the
	// second key of each leading pair: the two-key transfer of the point
	// mix (2 keys, 1 pair) and the large transaction (32 keys, 4 pairs).
	// The value sum over the store is invariant under it.
	a.moveFn = func(tx kvstore.Tx) error {
		a.txFold = 0
		for i, k := range a.keys {
			v, ok := tx.Get(uint64(k))
			a.rd[i] = v
			a.txFold = foldRead(a.txFold, v, ok)
		}
		for p := 0; p+1 < a.moves; p += 2 {
			tx.Put(uint64(a.keys[p]), a.rd[p]-1)
			tx.Put(uint64(a.keys[p+1]), a.rd[p+1]+1)
		}
		return nil
	}
	return a
}

func (a *applier) txn(fn func(kvstore.Tx) error) {
	span := int32(-1)
	if a.tr != nil {
		if a.txSeq++; a.txSeq%txnSpanEvery == 0 {
			span, fn = a.traced(fn)
		}
	}
	_, err := a.h.Txn(false, fn)
	if span >= 0 {
		a.tr.end(span)
	}
	if err != nil {
		a.failed++
		return
	}
	a.fold = (a.fold ^ a.txFold) * foldPrime
}

// point applies one point op.
func (a *applier) point(o *op) {
	switch o.kind {
	case opGet:
		v, ok, _ := a.h.Get(uint64(o.key))
		a.fold = foldRead(a.fold, v, ok)
	case opPut:
		a.h.Put(uint64(o.key), uint64(o.val))
	default:
		a.pair[0], a.pair[1] = o.key, o.key2
		a.keys, a.moves = a.pair[:], 2
		a.txn(a.moveFn)
	}
}

// request applies request i of s and returns the number of ops it completed
// (point workloads count every call, transactional ones count the commit).
func (a *applier) request(s *stream, i int) int {
	w := a.w
	switch w.shape {
	case shapePoint:
		ops := s.ops[i*w.group : (i+1)*w.group]
		for j := range ops {
			a.point(&ops[j])
		}
		return len(ops)
	case shapeMulti:
		a.keys = s.keys[i*w.reads : (i+1)*w.reads]
		a.vals = s.vals[i*w.writes : (i+1)*w.writes]
		a.txn(a.multiFn)
	default:
		a.keys, a.moves = s.keys[i*w.reads:(i+1)*w.reads], w.writes
		a.txn(a.moveFn)
	}
	return 1
}
