// Package loadgen models heavy KV traffic against every way this repo can
// reach a transactional store — the three unsharded stm/kvstore backends,
// kvstore.Sharded, and a live stm/server over TCP (see Targets): seeded
// zipfian key popularity (a few keys take most of the traffic, the shape
// real user-facing stores see), three operation mixes (read-heavy,
// write-heavy, large-transaction) and configurable worker counts.
//
// There is one engine (Run) and one operation stream. Each worker draws a
// deterministic stream from its own seeded generator and reaches the store
// through a Driver; written values come from the generator, never from
// reads (a wire protocol has no server-side compute, so blind writes are
// what let a RESP client replay the stream). Reads are still checked: the
// engine folds every value a Driver returns into Result.ReadFold. A
// single-worker run is therefore fully reproducible, and the benchmark
// checker exploits it — at workers=1 every target must agree on both the
// final-state checksum and the read fold.
//
// This package is host-side by charter: it reads the wall clock to measure
// throughput and latency (see internal/lint's host-side scope).
package loadgen

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"tokentm/stm/resp"
)

// Mix is one operation mix. Percentages must sum to 100. A Get is a
// single-key point read (the Handle.Get fast path, equivalent to a
// read-only single-key transaction); a Put is a blind single-key update
// (the Handle.Put fast path); a Transfer reads two keys and rewrites both
// (the read-to-write upgrade path); a Batch reads BatchGets keys and
// rewrites BatchPuts keys (the large-transaction shape the paper targets).
type Mix struct {
	Name        string `json:"name"`
	GetPct      int    `json:"get_pct"`
	PutPct      int    `json:"put_pct"`
	TransferPct int    `json:"transfer_pct"`
	BatchPct    int    `json:"batch_pct"`
	BatchGets   int    `json:"batch_gets"`
	BatchPuts   int    `json:"batch_puts"`
}

// Mixes are the standard three mixes the benchmark grid sweeps.
var Mixes = []Mix{
	{Name: "read-heavy", GetPct: 90, PutPct: 8, TransferPct: 2},
	{Name: "write-heavy", GetPct: 20, PutPct: 60, TransferPct: 20},
	{Name: "large-txn", GetPct: 58, PutPct: 20, TransferPct: 10, BatchPct: 12, BatchGets: 32, BatchPuts: 8},
}

// MixByName resolves a mix by name.
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("loadgen: unknown mix %q", name)
}

// Config parameterizes one benchmark cell's load; the store it runs
// against (and its capacity) belongs to the DriverSetup.
type Config struct {
	Mix      Mix     `json:"mix"`
	Workers  int     `json:"workers"`
	Ops      int     `json:"ops"`      // total transactions across workers
	Keyspace uint64  `json:"keyspace"` // live keys 1..Keyspace
	Seed     uint64  `json:"seed"`
	ZipfS    float64 `json:"zipf_s"` // zipf skew (>1)
}

// validate is the engine's one config check. The batch bounds are the RESP
// command-array limit (MGET k..., MSET k v ...): the stream is one across
// all targets, so a batch the wire cannot carry is rejected for every
// target rather than only failing on net.
func (cfg Config) validate() error {
	m := cfg.Mix
	switch {
	case cfg.Workers <= 0 || cfg.Ops <= 0:
		return fmt.Errorf("loadgen: workers %d and ops %d must be positive", cfg.Workers, cfg.Ops)
	case cfg.Keyspace < 1:
		return fmt.Errorf("loadgen: keyspace must be at least 1")
	case !(cfg.ZipfS > 1):
		return fmt.Errorf("loadgen: zipf skew %v must be > 1", cfg.ZipfS)
	case m.GetPct < 0 || m.PutPct < 0 || m.TransferPct < 0 || m.BatchPct < 0 ||
		m.GetPct+m.PutPct+m.TransferPct+m.BatchPct != 100:
		return fmt.Errorf("loadgen: mix %q percentages %d/%d/%d/%d do not sum to 100",
			m.Name, m.GetPct, m.PutPct, m.TransferPct, m.BatchPct)
	case m.BatchGets < 0 || 1+m.BatchGets > resp.MaxArgs:
		return fmt.Errorf("loadgen: mix %q batch_gets %d outside 0..%d", m.Name, m.BatchGets, resp.MaxArgs-1)
	case m.BatchPuts < 0 || 1+2*m.BatchPuts > resp.MaxArgs:
		return fmt.Errorf("loadgen: mix %q batch_puts %d outside 0..%d", m.Name, m.BatchPuts, (resp.MaxArgs-1)/2)
	}
	return nil
}

// Result is one cell's measurement. Mix/Target/Workers/Ops identify the
// cell; Commits/Aborts/Checksum/ReadFold are schedule-dependent (but
// deterministic at Workers=1); the timing fields are wall-clock
// measurements of this host.
type Result struct {
	Mix     string `json:"mix"`
	Target  string `json:"target"`
	Workers int    `json:"workers"`
	Ops     int    `json:"ops"`

	Shards      int    `json:"shards,omitempty"`       // shard count of sharded/net targets
	WireRetries uint64 `json:"wire_retries,omitempty"` // -RETRY transactions resent by clients

	Commits   uint64  `json:"commits"`
	Aborts    uint64  `json:"aborts"`
	AbortRate float64 `json:"abort_rate"`
	Checksum  uint64  `json:"checksum"`  // final store state (kvstore.Checksum)
	ReadFold  uint64  `json:"read_fold"` // every value the drivers returned, folded in stream order

	ElapsedNS  int64   `json:"elapsed_ns"`
	Throughput float64 `json:"throughput_ops_s"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
}

// latencyEvery: every latencyEvery-th transaction is timed, keeping timer
// overhead out of the hot loop.
const latencyEvery = 16

// prepopulateBatch is the Atomic batch size of the prepopulation pass,
// well inside the wire protocol's argument bound.
const prepopulateBatch = 128

// Run executes one benchmark cell through a target: build one driver per
// worker, insert every key in 1..Keyspace through worker 0 (so the
// measured phase sees a warm store and reads always hit), drive the mix
// from cfg.Workers goroutines, then collect timing plus the target's
// checksum and stats. Run consumes the setup: its drivers and the target
// itself are closed on every path.
func Run(setup DriverSetup, cfg Config) (res Result, err error) {
	if setup.Close != nil {
		defer func() {
			if cerr := setup.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	workers := make([]*worker, cfg.Workers)
	defer func() {
		for _, w := range workers {
			if w == nil {
				continue
			}
			if c, ok := w.d.(io.Closer); ok {
				c.Close() // client side of a connection whose replies are all read
			}
		}
	}()
	per := cfg.Ops / cfg.Workers
	for i := range workers {
		d, err := setup.New(i)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: driver %d: %w", i, err)
		}
		ops := per
		if i == 0 {
			ops += cfg.Ops % cfg.Workers
		}
		workers[i] = newWorker(d, cfg, i, ops)
	}
	if err := workers[0].prepopulate(cfg.Seed); err != nil {
		return Result{}, err
	}

	start := time.Now()
	done := make(chan error, len(workers))
	for _, w := range workers {
		go func() { done <- w.run() }()
	}
	for range workers {
		if werr := <-done; werr != nil && err == nil {
			err = werr
		}
	}
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	res = Result{
		Mix:       cfg.Mix.Name,
		Target:    setup.Target,
		Shards:    setup.Shards,
		Workers:   cfg.Workers,
		Ops:       cfg.Ops,
		ElapsedNS: elapsed.Nanoseconds(),
	}
	var lat []int64
	for _, w := range workers {
		// Per-worker folds are order-sensitive within a worker and
		// combined commutatively across workers.
		res.ReadFold += w.fold
		lat = append(lat, w.lat...)
		if r, ok := w.d.(WireRetrier); ok {
			res.WireRetries += r.Retries()
		}
	}
	if res.Checksum, err = setup.Checksum(); err != nil {
		return Result{}, err
	}
	st := setup.Stats()
	res.Commits, res.Aborts, res.AbortRate = st.Commits, st.Aborts, st.AbortRate()
	if elapsed > 0 {
		res.Throughput = float64(cfg.Ops) / elapsed.Seconds()
	}
	res.P50Micros, res.P99Micros = percentiles(lat)
	return res, nil
}

// worker drives one goroutine's share of a cell through a Driver. Its
// scratch slices are reused, so the steady-state loop does not allocate.
type worker struct {
	d        Driver
	mix      Mix
	keyspace uint64
	ops      int

	rng  *rand.Rand
	zipf *rand.Zipf
	val  uint64 // splitmix state for generated values
	fold uint64 // running fold of every value read

	getKeys, putKeys, putVals, got []uint64

	lat []int64 // sampled per-transaction latencies, ns
}

func newWorker(d Driver, cfg Config, id, ops int) *worker {
	r := rand.New(rand.NewSource(int64(cfg.Seed) + int64(id)*1337))
	return &worker{
		d:        d,
		mix:      cfg.Mix,
		keyspace: cfg.Keyspace,
		ops:      ops,
		rng:      r,
		zipf:     rand.NewZipf(r, cfg.ZipfS, 1, cfg.Keyspace-1),
		val:      cfg.Seed*0x9e3779b97f4a7c15 + uint64(id) + 1,
		lat:      make([]int64, 0, ops/latencyEvery+1),
	}
}

// prepopulate inserts every key in 1..keyspace (value = mixed key+seed).
func (w *worker) prepopulate(seed uint64) error {
	for lo := uint64(1); lo <= w.keyspace; lo += prepopulateBatch {
		w.putKeys, w.putVals = w.putKeys[:0], w.putVals[:0]
		for k := lo; k < lo+prepopulateBatch && k <= w.keyspace; k++ {
			w.putKeys = append(w.putKeys, k)
			w.putVals = append(w.putVals, splitmix(k+seed))
		}
		if err := w.d.Atomic(nil, w.putKeys, w.putVals, nil); err != nil {
			return err
		}
	}
	return nil
}

// key draws a zipfian-popular key, spread over the table by a multiplicative
// bijection so the hottest ranks do not cluster in adjacent slots.
func (w *worker) key() uint64 {
	rank := w.zipf.Uint64()
	return rank*0x9E3779B1%w.keyspace + 1
}

func (w *worker) nextVal() uint64 {
	w.val++
	return splitmix(w.val)
}

// atomic runs the assembled getKeys/putKeys/putVals as one transaction and
// folds the values it read.
func (w *worker) atomic() error {
	w.got = append(w.got[:0], w.getKeys...) // sized to getKeys; overwritten by the driver
	if err := w.d.Atomic(w.getKeys, w.putKeys, w.putVals, w.got); err != nil {
		return err
	}
	for _, v := range w.got {
		w.fold = splitmix(w.fold ^ v)
	}
	return nil
}

func (w *worker) run() error {
	for i := 0; i < w.ops; i++ {
		sample := i%latencyEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		var err error
		op := w.rng.Intn(100)
		switch m := &w.mix; {
		case op < m.GetPct:
			var v uint64
			v, err = w.d.Get(w.key())
			w.fold = splitmix(w.fold ^ v)
		case op < m.GetPct+m.PutPct:
			err = w.d.Put(w.key(), w.nextVal())
		case op < m.GetPct+m.PutPct+m.TransferPct:
			k1, k2 := w.key(), w.key()
			if k1 == k2 {
				k2 = k2%w.keyspace + 1
			}
			w.getKeys = append(w.getKeys[:0], k1, k2)
			w.putKeys = append(w.putKeys[:0], k1, k2)
			w.putVals = append(w.putVals[:0], w.nextVal(), w.nextVal())
			err = w.atomic()
		default:
			k1, k2 := w.key(), w.key()
			w.getKeys, w.putKeys, w.putVals = w.getKeys[:0], w.putKeys[:0], w.putVals[:0]
			for j := 0; j < m.BatchGets; j++ {
				w.getKeys = append(w.getKeys, 1+(k1+uint64(j)-1)%w.keyspace)
			}
			for j := 0; j < m.BatchPuts; j++ {
				w.putKeys = append(w.putKeys, 1+(k2+uint64(j)-1)%w.keyspace)
				w.putVals = append(w.putVals, w.nextVal())
			}
			err = w.atomic()
		}
		if err != nil {
			return err
		}
		if sample {
			w.lat = append(w.lat, time.Since(t0).Nanoseconds())
		}
	}
	return nil
}

// percentiles returns p50/p99 of the merged latency samples in microseconds.
func percentiles(all []int64) (p50, p99 float64) {
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pick := func(q float64) float64 {
		i := int(q * float64(len(all)-1))
		return float64(all[i]) / 1e3
	}
	return pick(0.50), pick(0.99)
}

// splitmix is splitmix64: the value stream generator and the read fold's
// mixing step.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
