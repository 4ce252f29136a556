package main

import (
	"os"
	"runtime"
	"sync"
	"time"

	"tokentm/stm"
	"tokentm/stm/kvstore"
)

// In-process workloads: kvstore handles driven directly in the worker
// process, so the system under test is the worker itself.

// handleClient adapts an applier to the window loop.
type handleClient struct {
	a         *applier
	s         *stream
	attempted uint64
}

// do applies request i: one stream request, or on inproc-large a group of
// consecutive transactions. A single 3 us transaction's p99 sits in the
// sparse knee between cache misses and timer ticks and moves 10% between
// back-to-back windows of one process; a group's is in the dense part.
func (c *handleClient) do(i int) int {
	g := max(c.a.w.txns, 1)
	n := 0
	for j := i * g; j < (i+1)*g; j++ {
		n += c.a.request(c.s, j)
	}
	c.attempted += uint64(n)
	return n
}

func (c *handleClient) counts() (uint64, uint64) { return c.attempted, c.a.failed }

// selfSUT reads the worker's own accounting and the store's protocol
// counters (the stm backend exposes them next to kvstore.Store).
type selfSUT struct{ store kvstore.Store }

func (s selfSUT) proc() (procSample, error) { return readProc(os.Getpid()) }

func (s selfSUT) cpu() (time.Duration, error) { return cpuClock(os.Getpid()) }

func (s selfSUT) stmStats() (stm.Stats, error) {
	if st, ok := s.store.(interface{ STMStats() stm.Stats }); ok {
		return st.STMStats(), nil
	}
	return stm.Stats{}, nil
}

// verifySegment replays the seeded single-worker verify stream against the
// system under test (through sutDo) and against an in-process rwmutex
// reference store, and requires equal read folds and equal checksums.
func verifySegment(w workload, rep *report, vs *stream,
	sutDo func(i int), sutFold func() uint64, sutSum func() (uint64, error)) {
	ref := kvstore.NewRWMutex()
	ra := newApplier(ref.Handle(0), w)
	for i := 0; i < vs.n; i++ {
		ra.request(vs, i)
		sutDo(i)
	}
	if got, want := sutFold(), ra.fold; got != want {
		rep.fail("verify segment: reads diverge from the rwmutex reference (fold %#x, want %#x)", got, want)
	}
	got, err := sutSum()
	if err != nil {
		rep.fail("verify segment: checksum: %v", err)
		return
	}
	if want := kvstore.Checksum(ref); got != want {
		rep.fail("verify segment: checksum %#x, rwmutex reference %#x", got, want)
	}
}

// preloadRange splits keys 1..n into `parts` contiguous ranges.
func preloadRange(n, parts, i int) (lo, hi uint32) {
	per := (n + parts - 1) / parts
	lo = uint32(i*per) + 1
	hi = uint32(min((i+1)*per, n))
	return lo, hi
}

func runInproc(w workload, cfg runCfg) *report {
	rep := newReport(w, cfg)
	store := kvstore.NewSTM(w.slots, w.workers)
	loops := make([]*loop, w.workers)
	apps := make([]*applier, w.workers)
	streams := make([]*stream, w.workers)
	for i := range loops {
		apps[i] = newApplier(store.Handle(i), w)
		streams[i] = newStream(w, cfg.seed, i, w.streamReqs)
		loops[i] = &loop{c: &handleClient{a: apps[i], s: streams[i]}, n: streams[i].n / max(w.txns, 1)}
	}

	vs := newStream(w, cfg.seed, roleVerify, w.verifyReqs)
	va := apps[0]
	verifySegment(w, rep, vs,
		func(i int) { va.request(vs, i) },
		func() uint64 { return va.fold },
		func() (uint64, error) { return kvstore.Checksum(store), nil })

	// The verify segment's reference store is garbage now. Collect it here,
	// not whenever the pacer gets to it: this process's peak RSS is mem_mb.
	runtime.GC()

	// Preload every key (overwriting whatever the verify segment left), so
	// the window starts from one seed-defined state with a known value sum.
	preloadStore(store, w, cfg.seed)
	var wantSum uint64
	for k := uint32(1); k <= uint32(w.keys); k++ {
		wantSum += preloadVal(cfg.seed, k)
	}

	var wg sync.WaitGroup
	for _, l := range loops {
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			l.replay(w.warmupReqs)
		}(l)
	}
	wg.Wait()
	rep.SetupS = time.Since(cfg.start).Seconds()

	sut := selfSUT{store: store}
	if cfg.trace {
		tracedInproc(w, cfg, rep, loops, apps, streams, sut)
	} else {
		res, err := runWindow(loops, cfg.window, w, sut)
		if err != nil {
			rep.fail("window: %v", err)
			return rep
		}
		rep.endToEnd(res)
	}

	if w.shape == shapeLarge {
		// Every transaction moved units between keys: the store-wide value
		// sum is invariant (mod 2^64) under any serializable execution.
		var sum uint64
		n := 0
		store.ForEach(func(_, v uint64) { sum += v; n++ })
		if n != w.keys || sum != wantSum {
			rep.fail("conserved sum: %d keys sum %#x, want %d keys sum %#x", n, sum, w.keys, wantSum)
		}
	}
	return rep
}
