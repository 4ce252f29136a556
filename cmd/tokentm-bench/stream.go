package main

import (
	"bytes"
	"math/rand"
	"strconv"

	"tokentm/stm/resp"
)

// The op stream. Everything a measured window replays — keys, op kinds,
// values, and for the wire workloads the already-encoded request bytes — is
// generated here from the seed during set-up, so generator cost (rand.Zipf
// is 30-50 ns a draw against a 45 ns point op) is in no reported number.
// The benchmark carries its own generator on purpose: stm/loadgen is
// scheduled for consolidation and a later PR may not edit the benchmark to
// follow it.

const (
	opGet uint8 = iota
	opPut
	opTransfer // read two keys, move one unit from the first to the second
)

// op is one point operation. Keys are 1-based zipf ranks (rank 0, the
// hottest, is key 1); the store hashes keys, so rank order is not locality.
type op struct {
	kind      uint8
	key, key2 uint32
	val       uint32
}

// stream is one worker's cyclic request stream. Request i is
// ops[i*group:(i+1)*group] for point workloads, keys[i*reads:(i+1)*reads]
// (distinct within the request; the first `writes` are the rewritten ones)
// plus vals[i*writes:(i+1)*writes] for transactional ones, and
// wire[off[i]:off[i+1]] on the wire.
type stream struct {
	n    int // requests
	ops  []op
	keys []uint32
	vals []uint32
	wire []byte
	off  []uint32
}

// Stream roles: worker streams use their worker index; the verify segment
// and the preload values draw from their own sub-seeds so changing the
// worker count never changes what is verified.
const (
	roleVerify  = 1000
	rolePreload = 1001
)

func subSeed(seed int64, role int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(role+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x)
}

// newStream generates `reqs` requests of w's mix for the given role.
func newStream(w workload, seed int64, role, reqs int) *stream {
	r := rand.New(rand.NewSource(subSeed(seed, role)))
	z := rand.NewZipf(r, zipfS, 1, uint64(w.keys-1))
	key := func() uint32 { return uint32(z.Uint64()) + 1 }
	s := &stream{n: reqs}
	switch w.shape {
	case shapePoint:
		s.ops = make([]op, reqs*w.group)
		for i := range s.ops {
			o := op{key: key(), val: r.Uint32()}
			switch p := r.Intn(100); {
			case p < w.getPct:
				o.kind = opGet
			case p < w.getPct+w.putPct:
				o.kind = opPut
			default:
				o.kind = opTransfer
				for o.key2 = key(); o.key2 == o.key; o.key2 = key() {
				}
			}
			s.ops[i] = o
		}
	case shapeMulti, shapeLarge:
		s.keys = make([]uint32, reqs*w.reads)
		for i := 0; i < reqs; i++ {
			ks := s.keys[i*w.reads : (i+1)*w.reads]
			for j := range ks {
			redraw:
				k := key()
				if w.shape == shapeLarge && j < w.writes {
					// The rewritten keys are drawn uniformly from the
					// colder half of the ranks, each worker from its own
					// residue class (a client updating its own records);
					// the rest are drawn by popularity. Rewriting zipf
					// draws puts the head of the distribution in most
					// write sets, and the workload then measures two
					// workers queueing for one block (41% of attempts
					// aborted), not per-access bookkeeping; rewriting a
					// request's coldest draws, or uniform draws shared
					// between workers, leaves conflicts near the 1% that
					// decides p99, different for every seed.
					n := w.keys / 2 / w.workers
					k = uint32(w.keys/2 + r.Intn(n)*w.workers + role%w.workers + 1)
				}
				for _, prev := range ks[:j] {
					if prev == k {
						goto redraw
					}
				}
				ks[j] = k
			}
		}
		if w.shape == shapeMulti {
			s.vals = make([]uint32, reqs*w.writes)
			for i := range s.vals {
				s.vals[i] = r.Uint32()
			}
		}
	}
	if w.kind == kindWire {
		s.encode(w)
	}
	return s
}

// encode renders every request into the exact bytes the client will write,
// through the codec's own command encoder.
func (s *stream) encode(w workload) {
	var buf bytes.Buffer
	enc := resp.NewWriter(&buf)
	s.off = make([]uint32, 0, s.n+1)
	var args []string
	u := func(v uint32) string { return strconv.FormatUint(uint64(v), 10) }
	for i := 0; i < s.n; i++ {
		s.off = append(s.off, uint32(buf.Len()))
		switch w.shape {
		case shapePoint:
			for _, o := range s.ops[i*w.group : (i+1)*w.group] {
				if o.kind == opGet {
					enc.WriteCommand("GET", u(o.key))
				} else {
					enc.WriteCommand("SET", u(o.key), u(o.val))
				}
			}
		case shapeMulti:
			ks := s.keys[i*w.reads : (i+1)*w.reads]
			vs := s.vals[i*w.writes : (i+1)*w.writes]
			enc.WriteCommand("MULTI")
			args = append(args[:0], "MGET")
			for _, k := range ks {
				args = append(args, u(k))
			}
			enc.WriteCommand(args...)
			args = append(args[:0], "MSET")
			for j, v := range vs {
				args = append(args, u(ks[j]), u(v))
			}
			enc.WriteCommand(args...)
			enc.WriteCommand("EXEC")
		}
		enc.Flush() // bytes.Buffer: cannot fail
	}
	s.off = append(s.off, uint32(buf.Len()))
	s.wire = buf.Bytes()
}

// request returns request i's encoded bytes.
func (s *stream) request(i int) []byte { return s.wire[s.off[i]:s.off[i+1]] }

// preloadVal is the value key k holds after preload: seed-dependent, never
// near zero, so inproc-large's unit transfers do not wrap in any window.
func preloadVal(seed int64, k uint32) uint64 {
	return 1<<40 + uint64(uint32(subSeed(seed, rolePreload))^k*2654435761)
}
