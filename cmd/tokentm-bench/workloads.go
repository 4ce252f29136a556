package main

import (
	"fmt"
	"time"
)

// The five workloads. Each is closed-loop with a stated client count, runs
// in its own worker process with GOMAXPROCS pinned, and replays a seeded,
// pre-generated op stream cyclically for a fixed wall-clock window. The
// README explains what every knob below is for and why each noise rule
// exists; the numbers here are the only place they are set.

type kind int

const (
	kindWire   kind = iota // client process + separate server process
	kindInproc             // kvstore handles in the worker process
	kindSim                // the paper-reproduction simulator
)

// shape is how a workload groups its op stream into requests.
type shape int

const (
	shapePoint shape = iota // single-key ops (+ two-key transfers), grouped
	shapeMulti              // MGET r keys, MSET the first w of them (blind)
	shapeLarge              // read r keys, move one unit between w/2 pairs
	shapeSim                // simulator jobs
)

type workload struct {
	name  string
	why   string // mirrors BENCHMARK.json
	kind  kind
	shape shape

	gomaxprocs int           // of the worker (and of the server child)
	window     time.Duration // suite-mode window; -seconds overrides
	workers    int           // closed-loop clients (goroutines / connections)

	keys, slots int // keyspace: live keys and table capacity
	shards      int // wire: server shard count

	group          int // point: ops per request (pipeline depth on the wire)
	reads, writes  int // multi/large: keys read / rewritten per transaction
	txns           int // large: transactions per request
	getPct, putPct int // point mix; the rest are two-key transfers
	streamReqs     int // requests in each worker's cyclic stream
	warmupReqs     int // fixed-count warm-up, requests per worker
	verifyReqs     int // verify segment, requests (≈100 000 key accesses)
	sampleEvery    int // time every n-th request
	maxReqRate     int // requests/s per worker no host reaches: sizes the sample buffer

	simPasses int // sim: fixed warm-up passes (one per pool seed)
}

const (
	smallKeys, smallSlots = 32768, 65536   // ≈1.5 MB of table: inside one 4 MiB L2
	midKeys, midSlots     = 262144, 524288 // ≈12 MB: three times outside it
	zipfS                 = 1.1
	verifyAccesses        = 100000
)

var workloads = []workload{
	{
		name: "wire-pipelined",
		why:  "server capacity: 1 client, 2 conns, depth-16 batches of 80% GET/20% SET, zipf 1.1 over 256k keys (12 MB), server GOMAXPROCS=2; the resp codec and the server conn loop do the work",
		kind: kindWire, shape: shapePoint,
		gomaxprocs: 2, window: 25 * time.Second, workers: 2,
		keys: midKeys, slots: midSlots, shards: 4,
		group: 16, getPct: 80, putPct: 20,
		streamReqs: 1 << 14, warmupReqs: 12000, verifyReqs: verifyAccesses / 16,
		sampleEvery: 1, maxReqRate: 100000,
	},
	{
		name: "wire-multi",
		why:  "transaction round trip: 1 client, 2 conns, depth-1 MULTI/MGET 8/MSET 4/EXEC, zipf 1.1 over 32k keys, 4 shards, server GOMAXPROCS=2; stm.Group 2PL and a wake-up per op",
		kind: kindWire, shape: shapeMulti,
		gomaxprocs: 2, window: 25 * time.Second, workers: 2,
		keys: smallKeys, slots: smallSlots, shards: 4,
		reads: 8, writes: 4,
		streamReqs: 1 << 15, warmupReqs: 16000, verifyReqs: verifyAccesses / 12,
		sampleEvery: 1, maxReqRate: 100000,
	},
	{
		name: "inproc-point",
		why:  "small-transaction fast paths: 2 workers, GOMAXPROCS=2, 50% Get/40% Put/10% two-key transfer, zipf 1.1 over 32k keys (1.5 MB, in L2); no wire to dilute a 45 ns path",
		kind: kindInproc, shape: shapePoint,
		gomaxprocs: 2, window: 15 * time.Second, workers: 2,
		keys: smallKeys, slots: smallSlots,
		group: 64, getPct: 50, putPct: 40,
		streamReqs: 1 << 12, warmupReqs: 150000, verifyReqs: verifyAccesses / 64,
		sampleEvery: 4, maxReqRate: 1000000,
	},
	{
		name: "inproc-large",
		why:  "the paper's title case: 2 workers, GOMAXPROCS=2, transactions reading 32 keys (zipf 1.1 over 32k) and rewriting 8; spilled read log, 8 upgrades, slow release",
		kind: kindInproc, shape: shapeLarge,
		gomaxprocs: 2, window: 15 * time.Second, workers: 2,
		keys: smallKeys, slots: smallSlots,
		reads: 32, writes: 8, txns: 8,
		streamReqs: 1 << 15, warmupReqs: 45000, verifyReqs: verifyAccesses / 40,
		sampleEvery: 1, maxReqRate: 200000,
	},
	{
		name: "sim-sweep",
		why:  "host speed of the simulator: Runner.Sweep of 4 workloads x 3 HTM variants at scale 0.01, 1 sweep worker, GOMAXPROCS=1; host-STM changes must leave it flat",
		kind: kindSim, shape: shapeSim,
		gomaxprocs: 1, window: 20 * time.Second, workers: 1,
		simPasses: simSeeds,
	},
}

// opsPerReq is how many ops one stream request completes.
func (w workload) opsPerReq() int { return max(w.group, 1) }

// cmdsPerReq is how many commands (and replies) one wire request carries.
func (w workload) cmdsPerReq() int {
	if w.shape == shapeMulti {
		return 4 // MULTI, MGET, MSET, EXEC
	}
	return w.group
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a sub-second, tiny-keyspace version that still
// walks every code path and every correctness check (go test runs these).
func (w workload) smoke() workload {
	if w.kind == kindSim {
		w.simPasses = 1
		return w
	}
	w.keys, w.slots = 1024, 2048
	w.streamReqs = 256
	w.warmupReqs = 64
	w.verifyReqs = 64
	return w
}
