package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"tokentm/stm"
	"tokentm/stm/kvstore"
	"tokentm/stm/resp"
)

// The traced pass (-trace 1 / -layers). A layer is a module; every number
// here is taken from this package only — by timing calls into public
// functions on the workload's own op stream, by reading public counters as
// deltas over a window, and by subtracting one rung of the ladder from the
// next. A traced run spends its -seconds as: an untraced window (the base of
// bench.trace_overhead_ratio and of every counter), a traced window (spans),
// then fixed-count micro-benchmarks and the ladder.
//
// The ladder replays the workload's streams, with the workload's worker
// count, at one layer at a time from the bottom: raw stm calls on the same
// block footprint, then kvstore handles, then sharded handles, then the
// codec alone, then — on the wire — the live server answering PINGs in
// batches of the workload's shape (its syscall-and-dispatch floor). Each
// rung's self cost is its cost minus the rung below; the rungs are summed
// and compared with the window's measured cost per op, and the remainder is
// reported as ladder.remainder_ratio rather than folded into a layer.

// layerMetric is one per-layer metric; BENCHMARK.json carries the same table.
type layerMetric struct{ name, unit, better string }

var perLayerMetrics = []layerMetric{
	// stm: the token protocol driven directly on a stm.TM, one thread.
	{"stm.snapshot2_ns", "ns", "lower"},
	{"stm.upsert2_ns", "ns", "lower"},
	{"stm.txn_empty_ns", "ns", "lower"},
	{"stm.load_ns", "ns", "lower"},
	{"stm.store_ns", "ns", "lower"},
	{"stm.upgrade_ns", "ns", "lower"},
	{"stm.release_inline_ns_per_entry", "ns", "lower"},
	{"stm.release_spilled_ns_per_entry", "ns", "lower"},
	{"stm.readonly_load_ns", "ns", "lower"},
	{"stm.group_overhead_ns", "ns", "lower"},
	// stm counters, deltas over the untraced window of the traced run.
	{"stm.commits", "count", "higher"},
	{"stm.aborts", "count", "lower"},
	{"stm.abort_ratio", "ratio", "lower"},
	{"stm.upgrades_per_commit", "ratio", "lower"},
	{"stm.fast_release_ratio", "ratio", "higher"},
	{"stm.conflict_writer", "count", "lower"},
	{"stm.conflict_reader", "count", "lower"},
	{"stm.conflict_aborts", "count", "lower"},
	{"stm.doomed_aborts", "count", "lower"},
	{"stm.snapshot_retries", "count", "lower"},
	// kvstore: Handle calls, one thread, the workload's keyspace.
	{"kvstore.get_ns", "ns", "lower"},
	{"kvstore.put_ns", "ns", "lower"},
	{"kvstore.txn_large_ns", "ns", "lower"},
	{"kvstore.self_ns_per_access", "ns", "lower"},
	{"kvstore.rwmutex_txn_large_ns", "ns", "lower"},
	{"kvstore.large_gap_ratio", "ratio", "lower"},
	{"kvstore.sharded_get_ns", "ns", "lower"},
	{"kvstore.sharded_txn_multi_ns", "ns", "lower"},
	{"kvstore.shards_per_txn", "count", "lower"},
	// resp: the codec alone.
	{"resp.read_command_ns", "ns", "lower"},
	{"resp.write_reply_ns", "ns", "lower"},
	{"resp.read_reply_ns", "ns", "lower"},
	{"resp.req_bytes_per_op", "B", "lower"},
	{"resp.reply_bytes_per_op", "B", "lower"},
	// server: the server child's accounting over the untraced window.
	{"server.cpu_user_us_per_op", "us", "lower"},
	{"server.cpu_sys_us_per_op", "us", "lower"},
	{"server.self_us_per_op", "us", "lower"},
	{"server.ctxsw_per_op", "ratio", "lower"},
	{"server.retry_ratio", "ratio", "lower"},
	{"server.rtt_floor_us", "us", "lower"},
	// client spans: the benchmark's own side of the socket.
	{"client.write_ns_per_req", "ns", "lower"},
	{"client.wait_ns_per_req", "ns", "lower"},
	{"client.parse_ns_per_req", "ns", "lower"},
	{"client.busy_ratio", "ratio", "lower"},
	// in-process transaction spans (1 in 64 transactions).
	{"span.txn_begin_ns", "ns", "lower"},
	{"span.txn_access_ns", "ns", "lower"},
	{"span.txn_release_ns", "ns", "lower"},
	// sim / harness / attr.
	{"sim.host_ns_per_sim_cycle", "ns", "lower"},
	{"sim.host_us_per_commit", "us", "lower"},
	{"sim.host_us_per_commit.TokenTM", "us", "lower"},
	{"sim.host_us_per_commit.LogTM-SE_Perf", "us", "lower"},
	{"sim.host_us_per_commit.LogTM-SE_4xH3", "us", "lower"},
	{"sim.job_ms.Cholesky", "ms", "lower"},
	{"sim.job_ms.Delaunay", "ms", "lower"},
	{"sim.job_ms.Vacation-High", "ms", "lower"},
	{"sim.job_ms.Genome", "ms", "lower"},
	{"sim.allocs_per_pass", "count", "lower"},
	{"sim.alloc_mb_per_pass", "MB", "lower"},
	{"harness.overhead_us_per_job", "us", "lower"},
	{"sim.cycles", "count", "lower"},
	{"sim.commits", "count", "higher"},
	{"sim.aborts", "count", "lower"},
	{"attr.useful_share", "ratio", "higher"},
	{"attr.conflict_stall_share", "ratio", "lower"},
	{"attr.wasted_share", "ratio", "lower"},
	{"attr.commit_share", "ratio", "lower"},
	// the ladder, per op of the workload.
	{"ladder.stm_ns_per_op", "ns", "lower"},
	{"ladder.kvstore_self_ns_per_op", "ns", "lower"},
	{"ladder.sharded_self_ns_per_op", "ns", "lower"},
	{"ladder.resp_ns_per_op", "ns", "lower"},
	{"ladder.server_floor_ns_per_op", "ns", "lower"},
	{"ladder.e2e_ns_per_op", "ns", "lower"},
	{"ladder.remainder_ratio", "ratio", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "higher"},
	// the request-latency tail of the untraced window: too much of it is the
	// host's scheduling for a regression bound (README, "Why p99_us is not
	// gated").
	{"p99_us", "us", "lower"},
}

// fillLayers gives every per-layer metric this workload does not exercise
// the value 0, so a traced run always reports the whole table.
func (r *report) fillLayers() {
	for _, m := range perLayerMetrics {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
			r.Unexercised = append(r.Unexercised, m.name)
		}
	}
}

// setLayer sets a per-layer metric, taking the unit from the table.
func (r *report) setLayer(name string, v float64) {
	for _, m := range perLayerMetrics {
		if m.name == name {
			r.set(name, v, m.unit)
			return
		}
	}
	panic("tokentm-bench: metric " + name + " is not in perLayerMetrics")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counters reports the stm counter deltas of a window.
func (r *report) counters(st stm.Stats) {
	r.setLayer("stm.commits", float64(st.Commits))
	r.setLayer("stm.aborts", float64(st.Aborts))
	r.setLayer("stm.abort_ratio", st.AbortRate())
	r.setLayer("stm.upgrades_per_commit", ratio(st.Upgrades, st.Commits))
	r.setLayer("stm.fast_release_ratio", ratio(st.FastReleases, st.FastReleases+st.SlowReleases))
	r.setLayer("stm.conflict_writer", float64(st.ConflictWriter))
	r.setLayer("stm.conflict_reader", float64(st.ConflictReader))
	r.setLayer("stm.conflict_aborts", float64(st.ConflictAborts))
	r.setLayer("stm.doomed_aborts", float64(st.DoomedAborts))
	r.setLayer("stm.snapshot_retries", float64(st.SnapshotRetries))
}

// tracedWindows records the two windows of a traced run: their counts, and
// the traced window's throughput as a share of the untraced one's.
func (r *report) tracedWindows(base, traced windowResult) {
	r.Attempted, r.Failed = base.attempted+traced.attempted, base.failed+traced.failed
	r.WindowS = (base.elapsed + traced.elapsed).Seconds()
	if r.Failed != 0 {
		r.fail("%d of %d ops failed", r.Failed, r.Attempted)
	}
	r.setLayer("bench.trace_overhead_ratio", traced.stats().opsPerSec/base.stats().opsPerSec)
	r.setLayer("p99_us", base.stats().p99us)
	r.Samples, r.P99Trusted = base.samples, base.p99Trusted
}

// Split of a traced run's -seconds.
const (
	untracedShare = 0.25
	tracedShare   = 0.25
)

// perCall times n calls of fn and returns ns per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// clockCost is the cost of one time.Now, subtracted wherever a measured
// interval is bracketed by two of them.
func clockCost() float64 {
	const n = 200000
	var sink time.Time
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink = time.Now()
	}
	_ = sink
	return float64(time.Since(t0)) / n
}

// mixKey spreads a key over the table the way a hash table would; the raw
// stm rungs place key k's block at mixKey(k) & mask.
func mixKey(k uint32) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}

// microReps scales the fixed-count micro-benchmarks (smoke runs shrink it).
func microReps(cfg runCfg, n int) int {
	if cfg.smoke {
		return max(n/200, 16)
	}
	return n
}

// accessShape derives the key streams the micro-benchmarks and the ladder
// need beside the workload's own: transactions of r distinct keys.
func accessShape(w workload, r, wr int, sh shape) workload {
	w.kind, w.shape, w.reads, w.writes = kindInproc, sh, r, wr
	return w
}

// stmMicro measures the token protocol on a bare stm.TM with one thread,
// addressing blocks by the workload's own keys.
func stmMicro(rep *report, w workload, cfg runCfg) (largeNS float64) {
	mask := uint64(w.slots - 1)
	tm := stm.New(w.slots, 2, 1)
	th := tm.Thread(0)
	clk := clockCost()
	const txKeys = 40 // > inlineLog (24): the spilled-release footprint
	ks := newStream(accessShape(w, txKeys, 0, shapeMulti), cfg.seed, roleVerify+2, 4096)
	slot := func(t, j int) uint64 { return mixKey(ks.keys[t*txKeys+j]) & mask }
	nTx := ks.n

	reps := microReps(cfg, 2000000)
	rep.setLayer("stm.snapshot2_ns", perCall(reps, func(i int) {
		s := mixKey(ks.keys[i%len(ks.keys)]) & mask
		th.Snapshot2(stm.Addr(2*s), stm.Addr(2*s+1))
	}))
	rep.setLayer("stm.upsert2_ns", perCall(reps, func(i int) {
		s := mixKey(ks.keys[i%len(ks.keys)]) & mask
		th.Upsert2(stm.Addr(2*s), stm.Addr(2*s+1), s+1, uint64(i))
	}))
	empty := func(*stm.Tx) error { return nil }
	rep.setLayer("stm.txn_empty_ns", perCall(reps, func(int) { th.Atomically(empty) }))

	// Transactions timed from inside: t0 before the first access, t1 after
	// the last, t2 when Atomically returns. (t1-t0)/n is the marginal cost
	// of an access, (t2-t1)/entries the commit-and-release cost per log
	// entry. mid splits a two-phase body (loads, then stores).
	var t0, mid, t1 time.Time
	var t, nLoad, nStore int
	var storeSame bool // stores hit the blocks just loaded (upgrades)
	body := func(tx *stm.Tx) error {
		t0 = time.Now()
		for j := 0; j < nLoad; j++ {
			tx.Load(stm.Addr(2*slot(t, j) + 1))
		}
		mid = time.Now()
		for j := 0; j < nStore; j++ {
			b := j
			if !storeSame {
				b += nLoad
			}
			tx.Store(stm.Addr(2*slot(t, b)+1), uint64(j))
		}
		t1 = time.Now()
		return nil
	}
	run := func(loads, stores int, same, readOnly bool) (first, second, release float64) {
		nLoad, nStore, storeSame = loads, stores, same
		n := microReps(cfg, 100000)
		var a, b, c time.Duration
		for i := 0; i < n; i++ {
			t = i % nTx
			if readOnly {
				th.ReadOnly(body)
			} else {
				th.Atomically(body)
			}
			t2 := time.Now()
			a += mid.Sub(t0)
			b += t1.Sub(mid)
			c += t2.Sub(t1)
		}
		f := func(d time.Duration) float64 { return float64(d)/float64(n) - clk }
		return f(a), f(b), f(c)
	}
	ld, _, rel := run(16, 0, false, false)
	rep.setLayer("stm.load_ns", ld/16)
	rep.setLayer("stm.release_inline_ns_per_entry", rel/16)
	_, _, rel = run(txKeys, 0, false, false)
	rep.setLayer("stm.release_spilled_ns_per_entry", rel/txKeys)
	_, st, _ := run(0, 16, false, false)
	rep.setLayer("stm.store_ns", st/16)
	_, up, _ := run(16, 16, true, false)
	rep.setLayer("stm.upgrade_ns", up/16)
	ld, _, _ = run(16, 0, false, true)
	rep.setLayer("stm.readonly_load_ns", ld/16)

	// The inproc-large footprint on bare stm: what kvstore.txn_large_ns is
	// compared with to get the store's own cost per access.
	nLoad, nStore, storeSame = 32, 8, true
	n := microReps(cfg, 100000)
	largeNS = perCall(n, func(i int) { t = i % nTx; th.Atomically(body) }) - 3*clk

	// Group over 4 TMs against one TM, same 8-load/4-store footprint.
	const shards = 4
	smask := mask / shards
	var gthreads [shards]*stm.Thread
	for i := range gthreads {
		gthreads[i] = stm.New(w.slots/shards, 2, 1).Thread(0)
	}
	g := stm.NewGroup(gthreads[:]...)
	gbody := func(gt *stm.GroupTx) error {
		for j := 0; j < 8; j++ {
			h := mixKey(ks.keys[t*txKeys+j])
			tx := gt.Tx(int(h >> 62))
			a := stm.Addr(2*(h&smask) + 1)
			if v := tx.Load(a); j < 4 {
				tx.Store(a, v+1)
			}
		}
		return nil
	}
	sbody := func(tx *stm.Tx) error {
		for j := 0; j < 8; j++ {
			a := stm.Addr(2*slot(t, j) + 1)
			if v := tx.Load(a); j < 4 {
				tx.Store(a, v+1)
			}
		}
		return nil
	}
	n = microReps(cfg, 300000)
	grp := perCall(n, func(i int) { t = i % nTx; g.Atomically(gbody) })
	one := perCall(n, func(i int) { t = i % nTx; th.Atomically(sbody) })
	rep.setLayer("stm.group_overhead_ns", grp-one)
	return largeNS
}

// kvStores are the preloaded stores the kvstore micro-benchmarks and the
// kvstore rungs of the ladder share.
type kvStores struct {
	stm     kvstore.Store
	sharded *kvstore.Sharded
}

func preloadStore(s kvstore.Store, w workload, seed int64) {
	var wg sync.WaitGroup
	for i := 0; i < w.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := s.Handle(i)
			lo, hi := preloadRange(w.keys, w.workers, i)
			for k := lo; k <= hi; k++ {
				h.Put(uint64(k), preloadVal(seed, k))
			}
		}(i)
	}
	wg.Wait()
}

// kvMicro measures kvstore Handle calls with one thread on the workload's
// keyspace and returns the stores for the ladder to reuse.
func kvMicro(rep *report, w workload, cfg runCfg, stmLargeNS float64) kvStores {
	st := kvStores{
		stm:     kvstore.NewSTM(w.slots, w.workers),
		sharded: kvstore.NewSharded(4, w.slots, w.workers, stm.Options{}),
	}
	preloadStore(st.stm, w, cfg.seed)
	preloadStore(st.sharded, w, cfg.seed)

	pts := newStream(accessShape(w, 1, 0, shapeMulti), cfg.seed, roleVerify+3, 1<<16)
	h := st.stm.Handle(0)
	reps := microReps(cfg, 1000000)
	rep.setLayer("kvstore.get_ns", perCall(reps, func(i int) { h.Get(uint64(pts.keys[i%pts.n])) }))
	rep.setLayer("kvstore.put_ns", perCall(reps, func(i int) { h.Put(uint64(pts.keys[i%pts.n]), uint64(i)) }))
	sh := st.sharded.Handle(0).(*kvstore.ShardedHandle)
	rep.setLayer("kvstore.sharded_get_ns", perCall(reps, func(i int) { sh.Get(uint64(pts.keys[i%pts.n])) }))

	lw := accessShape(w, 32, 8, shapeLarge)
	ls := newStream(lw, cfg.seed, roleVerify+4, 4096)
	la := newApplier(h, lw)
	n := microReps(cfg, 100000)
	large := perCall(n, func(i int) { la.request(ls, i%ls.n) })
	rep.setLayer("kvstore.txn_large_ns", large)
	rep.setLayer("kvstore.self_ns_per_access", (large-stmLargeNS)/40)

	// The same stream on the coarse-lock baseline: ROADMAP's "2x" gap as a
	// tracked number. The map is preloaded like the stores.
	rw := kvstore.NewRWMutex()
	rh := rw.Handle(0)
	for k := uint32(1); k <= uint32(w.keys); k++ {
		rh.Put(uint64(k), preloadVal(cfg.seed, k))
	}
	ra := newApplier(rh, lw)
	rwLarge := perCall(n, func(i int) { ra.request(ls, i%ls.n) })
	rep.setLayer("kvstore.rwmutex_txn_large_ns", rwLarge)
	rep.setLayer("kvstore.large_gap_ratio", large/rwLarge)

	mw := accessShape(w, 8, 4, shapeMulti)
	ms := newStream(mw, cfg.seed, roleVerify+5, 4096)
	ma := newApplier(sh, mw)
	var touched uint64
	multi := perCall(n, func(i int) {
		j := i % ms.n
		ma.keys = ms.keys[j*8 : (j+1)*8]
		ma.vals = ms.vals[j*4 : (j+1)*4]
		serials, _ := sh.TxnSerials(false, ma.multiFn)
		for _, s := range serials {
			if s != 0 {
				touched++
			}
		}
	})
	rep.setLayer("kvstore.sharded_txn_multi_ns", multi)
	rep.setLayer("kvstore.shards_per_txn", float64(touched)/float64(n))
	return st
}

// stmReplayer replays stream requests as raw stm calls on the block
// footprint the kvstore would touch (no probing, no key compare): the
// bottom rung of the ladder.
type stmReplayer struct {
	w    workload
	mask uint64
	th   *stm.Thread
	keys []uint32
	pair [2]uint32
	fn   func(*stm.Tx) error
}

// newStmReplayers builds one replayer per worker over one shared TM.
func newStmReplayers(w workload) []*stmReplayer {
	out := make([]*stmReplayer, w.workers)
	tm := stm.New(w.slots, 2, w.workers)
	for i := range out {
		r := &stmReplayer{w: w, mask: uint64(w.slots - 1), th: tm.Thread(i)}
		r.fn = func(tx *stm.Tx) error {
			var rd [64]uint64
			for j, k := range r.keys {
				rd[j] = tx.Load(stm.Addr(2*(mixKey(k)&r.mask) + 1))
			}
			writes := r.w.writes
			if r.w.shape == shapePoint {
				writes = 2 // a two-key transfer
			}
			for j := 0; j < writes; j++ {
				tx.Store(stm.Addr(2*(mixKey(r.keys[j])&r.mask)+1), rd[j]+1)
			}
			return nil
		}
		out[i] = r
	}
	return out
}

func (r *stmReplayer) request(s *stream, i int) {
	w := r.w
	switch w.shape {
	case shapePoint:
		ops := s.ops[i*w.group : (i+1)*w.group]
		for j := range ops {
			o := &ops[j]
			sl := mixKey(o.key) & r.mask
			switch o.kind {
			case opGet:
				r.th.Snapshot2(stm.Addr(2*sl), stm.Addr(2*sl+1))
			case opPut:
				r.th.Upsert2(stm.Addr(2*sl), stm.Addr(2*sl+1), sl+1, uint64(o.val))
			default:
				r.pair[0], r.pair[1] = o.key, o.key2
				r.keys = r.pair[:]
				r.th.Atomically(r.fn)
			}
		}
	default:
		r.keys = s.keys[i*w.reads : (i+1)*w.reads]
		r.th.Atomically(r.fn)
	}
}

// rung replays reqs requests per worker, all workers at once, and returns
// busy nanoseconds per op (every worker is busy for the whole rung).
func rung(w workload, reqs int, do func(worker, i int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < w.workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				do(k, i)
			}
		}(k)
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(reqs*w.opsPerReq())
}

// ladderReqs is each rung's fixed request count per worker.
func ladderReqs(w workload, cfg runCfg) int {
	if cfg.smoke {
		return 512
	}
	if w.shape == shapePoint {
		return 8000000 / w.group
	}
	return 400000
}

// kvLadder runs the stm and kvstore rungs (and the sharded rung where the
// workload's path has one) on the workload's own streams. In process the
// rungs run with the workload's worker count, so contention for hot blocks
// is in every rung as it is in the window. On the wire they run with one:
// a server connection executes a transaction for a microsecond or two of a
// 45 us round trip, so two connections seldom overlap, and two replayers
// running back to back would measure a conflict storm the server never sees.
func kvLadder(rep *report, w workload, cfg runCfg, streams []*stream, st kvStores) (sum float64) {
	if w.kind == kindWire {
		w.workers = 1
	}
	reqs := ladderReqs(w, cfg)
	reps := newStmReplayers(w)
	a := rung(w, reqs, func(k, i int) { reps[k].request(streams[k], i%streams[k].n) })

	apps := make([]*applier, w.workers)
	for i := range apps {
		apps[i] = newApplier(st.stm.Handle(i), w)
	}
	b := rung(w, reqs, func(k, i int) { apps[k].request(streams[k], i%streams[k].n) })
	rep.setLayer("ladder.stm_ns_per_op", a)
	rep.setLayer("ladder.kvstore_self_ns_per_op", b-a)
	if w.kind != kindWire {
		return b
	}
	for i := range apps {
		apps[i] = newApplier(st.sharded.Handle(i), w)
	}
	c := rung(w, reqs, func(k, i int) { apps[k].request(streams[k], i%streams[k].n) })
	rep.setLayer("ladder.sharded_self_ns_per_op", c-b)
	return c
}

// txnSpanMetrics reports what the sampled kvstore.Handle.Txn spans say.
func txnSpanMetrics(rep *report, tracers []*tracer) {
	var all spanStat
	var access spanStat
	for _, tr := range tracers {
		st := spanStats(tr.spans)
		if s := st["kvstore.Handle.Txn"]; s != nil {
			all.Count += s.Count
			all.Begin += s.Begin
			all.Finish += s.Finish
		}
		for _, name := range []string{"tx.Get", "tx.Put"} {
			if s := st[name]; s != nil {
				access.Count += s.Count
				access.Total += s.Total
			}
		}
	}
	if all.Count > 0 && access.Count > 0 {
		rep.setLayer("span.txn_begin_ns", float64(all.Begin)/float64(all.Count))
		rep.setLayer("span.txn_release_ns", float64(all.Finish)/float64(all.Count))
		rep.setLayer("span.txn_access_ns", float64(access.Total)/float64(access.Count))
	}
}

// finishLadder records the measured cost per op and the share of it the
// rungs do not explain.
func finishLadder(rep *report, sum, e2e float64) {
	rep.setLayer("ladder.e2e_ns_per_op", e2e)
	rem := (e2e - sum) / e2e
	rep.setLayer("ladder.remainder_ratio", rem)
	rep.Notes = append(rep.Notes, fmt.Sprintf("ladder: rungs sum to %.1f ns/op of %.1f measured (remainder %+.1f%%)", sum, e2e, 100*rem))
}

func tracedInproc(w workload, cfg runCfg, rep *report, loops []*loop, apps []*applier, streams []*stream, s sut) {
	base, err := runWindow(loops, time.Duration(untracedShare*float64(cfg.window)), w, s)
	if err != nil {
		rep.fail("window: %v", err)
		return
	}
	var tracers []*tracer
	for _, a := range apps {
		a.tr = newTracer(cfg.start)
		tracers = append(tracers, a.tr)
	}
	traced, err := runWindow(loops, time.Duration(tracedShare*float64(cfg.window)), w, s)
	for _, a := range apps {
		a.tr = nil
	}
	if err != nil {
		rep.fail("window: %v", err)
		return
	}
	rep.tracedWindows(base, traced)
	rep.counters(base.stmDelta)
	txnSpanMetrics(rep, tracers)
	if cfg.keepSpans {
		for _, tr := range tracers {
			rep.Spans = append(rep.Spans, tr.spans)
		}
	}

	largeNS := stmMicro(rep, w, cfg)
	st := kvMicro(rep, w, cfg, largeNS)
	sum := kvLadder(rep, w, cfg, streams, st)
	finishLadder(rep, sum, base.meanCPUPerOpNS())
	rep.fillLayers()
}

// respMicro measures the codec alone on the workload's own bytes: the
// server's side (ReadCommand over the encoded requests; the reply shapes
// through Writer with one Flush per 16 ops, to io.Discard) and the client's
// (ReadReply over those replies). Returns server-side ns per op.
func respMicro(rep *report, w workload, cfg runCfg, s *stream) (pingNS, workNS float64) {
	opsPerReq, cmdsPerReq := w.opsPerReq(), w.cmdsPerReq()
	reqs := microReps(cfg, 2000000/cmdsPerReq)

	// Server side, decode.
	src := &cycleReader{buf: s.wire}
	rd := resp.NewReader(src)
	readNS := perCall(reqs*cmdsPerReq, func(int) {
		if _, err := rd.ReadCommand(); err != nil {
			panic(err) // the encoder's own output
		}
	}) * float64(cmdsPerReq) / float64(opsPerReq)

	// Server side, encode: the shapes stm/server writes for this workload.
	var replies bytes.Buffer
	encode := func(out io.Writer, n int) float64 {
		wr := resp.NewWriter(out)
		return perCall(n, func(i int) {
			j := i % s.n
			if w.shape == shapePoint {
				for _, o := range s.ops[j*w.group : (j+1)*w.group] {
					if o.kind == opGet {
						wr.WriteArrayHeader(3)
						wr.WriteBulkUint(uint64(o.val))
						wr.WriteUint(uint64(o.key & 3))
						wr.WriteUint(uint64(i))
					} else {
						wr.WriteArrayHeader(2)
						wr.WriteUint(uint64(o.key & 3))
						wr.WriteUint(uint64(i))
					}
				}
			} else {
				wr.WriteSimple("OK")
				wr.WriteSimple("QUEUED")
				wr.WriteSimple("QUEUED")
				wr.WriteArrayHeader(2)
				wr.WriteArrayHeader(2)
				wr.WriteArrayHeader(w.reads)
				for _, k := range s.keys[j*w.reads : (j+1)*w.reads] {
					wr.WriteBulkUint(preloadVal(cfg.seed, k))
				}
				wr.WriteSimple("OK")
				wr.WriteArrayHeader(w.shards)
				for sh := 0; sh < w.shards; sh++ {
					wr.WriteUint(uint64(i))
				}
			}
			wr.Flush()
		}) / float64(opsPerReq)
	}
	writeNS := encode(io.Discard, reqs)
	encode(&replies, min(reqs, 4096))

	// Client side, decode.
	crd := resp.NewReader(&cycleReader{buf: replies.Bytes()})
	readReplyNS := perCall(min(reqs, 4096)*cmdsPerReq*8, func(int) {
		if _, err := crd.ReadReply(); err != nil {
			panic(err)
		}
	}) * float64(cmdsPerReq) / float64(opsPerReq)

	rep.setLayer("resp.read_command_ns", readNS)
	rep.setLayer("resp.write_reply_ns", writeNS)
	rep.setLayer("resp.read_reply_ns", readReplyNS)

	// The codec share of a PING batch of the same command count, so the
	// server floor (measured with PINGs) is not counted twice.
	prd := resp.NewReader(&cycleReader{buf: pingRequest(cmdsPerReq)})
	pwr := resp.NewWriter(io.Discard)
	pingNS = perCall(reqs, func(int) {
		for i := 0; i < cmdsPerReq; i++ {
			prd.ReadCommand()
			pwr.WriteSimple("PONG")
		}
		pwr.Flush()
	}) / float64(opsPerReq)
	return pingNS, readNS + writeNS
}

// cycleReader serves buf over and over (whole buffers end on a frame
// boundary, so a codec reading it never sees a torn frame).
type cycleReader struct {
	buf []byte
	pos int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	if c.pos == len(c.buf) {
		c.pos = 0
	}
	n := copy(p, c.buf[c.pos:])
	c.pos += n
	return n, nil
}

// pingClient issues PING batches of the workload's command count per write:
// what the server spends per request on syscalls, wake-ups and dispatch
// with no store work and a trivial codec. With a period set it starts a
// request no sooner than that after the previous one (spinning, since no
// timer is this fine): the floor is then measured at the workload's own
// request rate. Unpaced PINGs come back in a third of the workload's round
// trip, the server's idle Ps are still spinning when the next one arrives,
// and the park-and-wake the real requests pay for goes unmeasured (13.2 us
// of server CPU per wire-multi request unpaced, 15.8 us paced).
type pingClient struct {
	c      *wireClient
	req    []byte
	cmds   int
	ops    int
	count  uint64
	period time.Duration
	last   time.Time
}

func (p *pingClient) do(int) int {
	if p.period > 0 {
		for time.Since(p.last) < p.period {
		}
		p.last = time.Now()
	}
	if _, err := p.c.nc.Write(p.req); err != nil {
		p.c.err = err
		return 0
	}
	for i := 0; i < p.cmds; i++ {
		if r, err := p.c.r.ReadReply(); err != nil || r.Type != '+' {
			p.c.err = fmt.Errorf("PING: %v %c", err, r.Type)
			return 0
		}
	}
	p.count += uint64(p.ops)
	return p.ops
}

func (p *pingClient) counts() (uint64, uint64) { return p.count, 0 }

func pingRequest(n int) []byte {
	var b bytes.Buffer
	w := resp.NewWriter(&b)
	for i := 0; i < n; i++ {
		w.WriteCommand("PING")
	}
	w.Flush()
	return b.Bytes()
}

func tracedWire(w workload, cfg runCfg, rep *report, loops []*loop, clients []*wireClient, tracers []*tracer, s sut) {
	var retries uint64 // -RETRY replies during the untraced window
	for _, c := range clients {
		retries -= c.retries
	}
	base, err := runWindow(loops, time.Duration(untracedShare*float64(cfg.window)), w, s)
	if err != nil {
		rep.fail("window: %v", err)
		return
	}
	for _, c := range clients {
		retries += c.retries
		c.tracing = true
		c.tm.bytes, c.wrote = 0, 0
	}
	traced, err := runWindow(loops, time.Duration(tracedShare*float64(cfg.window)), w, s)
	var inBytes, outBytes uint64
	for _, c := range clients {
		c.tracing = false
		inBytes += c.tm.bytes
		outBytes += c.wrote
	}
	if err != nil {
		rep.fail("window: %v", err)
		return
	}
	rep.tracedWindows(base, traced)
	rep.counters(base.stmDelta)
	rep.setLayer("resp.req_bytes_per_op", float64(outBytes)/float64(traced.ops))
	rep.setLayer("resp.reply_bytes_per_op", float64(inBytes)/float64(traced.ops))

	ops := float64(base.ops)
	rep.setLayer("server.cpu_user_us_per_op", float64((base.after.User-base.before.User).Microseconds())/ops)
	rep.setLayer("server.cpu_sys_us_per_op", float64((base.after.Sys-base.before.Sys).Microseconds())/ops)
	rep.setLayer("server.ctxsw_per_op", float64(base.after.VolCtxSw-base.before.VolCtxSw)/ops)
	if w.shape == shapeMulti {
		rep.setLayer("server.retry_ratio", float64(retries)/ops)
	}

	// Client spans.
	var req, wr, wait, parse spanStat
	for _, tr := range tracers {
		st := spanStats(tr.spans)
		for name, dst := range map[string]*spanStat{"request": &req, "client.write": &wr, "client.wait": &wait, "client.parse": &parse} {
			if s := st[name]; s != nil {
				dst.Count += s.Count
				dst.Total += s.Total
				dst.Self += s.Self
			}
		}
		if cfg.keepSpans {
			rep.Spans = append(rep.Spans, tr.spans)
		}
	}
	if req.Count > 0 {
		n := float64(req.Count)
		rep.setLayer("client.write_ns_per_req", float64(wr.Total)/n)
		rep.setLayer("client.wait_ns_per_req", float64(wait.Total)/n)
		rep.setLayer("client.parse_ns_per_req", float64(parse.Self)/n)
		busy := 1 - float64(wait.Total)/float64(req.Total)
		rep.setLayer("client.busy_ratio", busy)
		if busy > 0.9 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("client.busy_ratio %.2f: the load generator, not the server, bounds ops_per_s", busy))
		}
	}

	// Depth-1 PING: the round-trip floor.
	one := &pingClient{c: clients[0], req: pingRequest(1), cmds: 1, ops: 1}
	rtt := make([]uint32, 0, 4096)
	for i := 0; i < microReps(cfg, 4000); i++ {
		t0 := time.Now()
		one.do(0)
		rtt = append(rtt, uint32(time.Since(t0)))
	}
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	p50, _ := percentile(rtt, 50)
	rep.setLayer("server.rtt_floor_us", p50/1e3)

	// PING batches shaped like the workload's requests, on every connection:
	// the server's per-request floor.
	cmds := w.cmdsPerReq()
	opsPerReq := w.opsPerReq()
	period := time.Duration(float64(base.elapsed) * float64(len(clients)) * float64(opsPerReq) / float64(base.ops))
	ploops := make([]*loop, len(clients))
	for i, c := range clients {
		ploops[i] = &loop{c: &pingClient{c: c, req: pingRequest(cmds), cmds: cmds, ops: opsPerReq, period: period}, n: 1}
	}
	pingWin := 2 * time.Second
	if cfg.smoke {
		pingWin = 100 * time.Millisecond
	}
	floor, err := runWindow(ploops, pingWin, w, s)
	if err != nil {
		rep.fail("ping window: %v", err)
		return
	}

	pingCodecNS, codecNS := respMicro(rep, w, cfg, clients[0].s)
	largeNS := stmMicro(rep, w, cfg)
	st := kvMicro(rep, w, cfg, largeNS)
	streams := make([]*stream, len(clients))
	for i, c := range clients {
		streams[i] = c.s
	}
	kv := kvLadder(rep, w, cfg, streams, st)
	floorNS := floor.meanCPUPerOpNS() - pingCodecNS
	rep.setLayer("ladder.resp_ns_per_op", codecNS)
	rep.setLayer("ladder.server_floor_ns_per_op", floorNS)
	e2e := base.meanCPUPerOpNS()
	rep.setLayer("server.self_us_per_op", (e2e-codecNS-kv)/1e3)
	finishLadder(rep, kv+codecNS+floorNS, e2e)
	rep.fillLayers()
}

// simLayers reports the simulator's per-layer metrics from the passes of a
// traced run: base passes ran bare, traced passes under the job-span RunFunc.
func simLayers(rep *report, b *simBench, base []simPass, baseRes, tracedRes windowResult, mallocs, allocBytes uint64, keepSpans bool) {
	rep.tracedWindows(baseRes, tracedRes)

	// Simulated counts, summed over one pass of each pool seed: these repeat
	// exactly from run to run and across any change that claims only host
	// speed.
	var cycles, coreCycles, commits, aborts uint64
	bucket := make(map[string]uint64)
	seen := make(map[int64]bool)
	for _, p := range base {
		if seed := p.results[0].Job.Seed; seen[seed] {
			continue
		} else {
			seen[seed] = true
		}
		for _, r := range p.results {
			cycles += r.Outcome.Cycles
			coreCycles += r.Outcome.CoreCycleSum
			commits += r.Outcome.Commits
			aborts += r.Outcome.Aborts
			for name, v := range r.Outcome.Breakdown {
				bucket[name] += v
			}
		}
	}
	rep.setLayer("sim.cycles", float64(cycles))
	rep.setLayer("sim.commits", float64(commits))
	rep.setLayer("sim.aborts", float64(aborts))
	for _, name := range []string{"useful", "conflict_stall", "wasted", "commit"} {
		rep.setLayer("attr."+name+"_share", ratio(bucket[name], coreCycles))
	}

	// Host time per job class, over the bare passes.
	byWorkload := make(map[string]float64)
	byVariant := make(map[string]float64)
	commitsByVariant := make(map[string]uint64)
	var jobNS float64
	for _, p := range base {
		for _, r := range p.results {
			byWorkload[r.Job.Workload] += float64(r.WallNS)
			byVariant[r.Job.Variant] += float64(r.WallNS)
			commitsByVariant[r.Job.Variant] += r.Outcome.Commits
			jobNS += float64(r.WallNS)
		}
	}
	passes := float64(len(base))
	for _, wl := range simWorkloads {
		rep.setLayer("sim.job_ms."+wl, byWorkload[wl]/passes/float64(len(simVariants))/1e6)
	}
	for _, v := range simVariants {
		rep.setLayer("sim.host_us_per_commit."+v, byVariant[v]/float64(commitsByVariant[v])/1e3)
	}
	rep.setLayer("sim.host_us_per_commit", float64(baseRes.elapsed.Microseconds())/float64(baseRes.ops))
	var simCycles uint64 // core cycles simulated in the bare window
	for _, p := range base {
		for _, r := range p.results {
			simCycles += r.Outcome.CoreCycleSum
		}
	}
	rep.setLayer("sim.host_ns_per_sim_cycle", float64(baseRes.elapsed)/float64(simCycles))
	rep.setLayer("sim.allocs_per_pass", float64(mallocs)/passes)
	rep.setLayer("sim.alloc_mb_per_pass", float64(allocBytes)/passes/(1<<20))

	// Sweep wall minus the job spans under it: what the harness itself costs.
	st := spanStats(b.tr.spans)
	if sw := st["Runner.Sweep"]; sw != nil && sw.Kids > 0 {
		rep.setLayer("harness.overhead_us_per_job", float64(sw.Self)/float64(sw.Kids)/1e3)
	}
	if keepSpans {
		rep.Spans = append(rep.Spans, b.tr.spans)
	}
	rep.fillLayers()
}
