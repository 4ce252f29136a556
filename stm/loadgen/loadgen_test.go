package loadgen

import (
	"strings"
	"testing"
)

const testCapacity = 4096 // 4x the test keyspace, the grid's provisioning

func testConfig(workers int) Config {
	return Config{
		Mix:      Mixes[0], // read-heavy
		Workers:  workers,
		Ops:      4000,
		Keyspace: 1024,
		Seed:     7,
		ZipfS:    1.1,
	}
}

// runTarget runs one cell on a fresh 4-shard instance of the named target.
func runTarget(t *testing.T, target string, cfg Config) Result {
	t.Helper()
	setup, err := NewTarget(target, 4, testCapacity, cfg.Workers)
	if err != nil {
		t.Fatalf("%s: %v", target, err)
	}
	res, err := Run(setup, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Mix.Name, target, err)
	}
	return res
}

// TestSingleWorkerDeterminism: at workers=1 the op stream is one seeded
// sequence, so re-running any target must reproduce its final state, the
// values it read and its commit count exactly.
func TestSingleWorkerDeterminism(t *testing.T) {
	for _, target := range Targets {
		r1 := runTarget(t, target, testConfig(1))
		r2 := runTarget(t, target, testConfig(1))
		if r1.Checksum != r2.Checksum || r1.ReadFold != r2.ReadFold || r1.Commits != r2.Commits {
			t.Errorf("%s: not reproducible: checksum %x vs %x, read fold %x vs %x, commits %d vs %d",
				target, r1.Checksum, r2.Checksum, r1.ReadFold, r2.ReadFold, r1.Commits, r2.Commits)
		}
		if r1.Commits == 0 || r1.Throughput <= 0 || r1.P99Micros < r1.P50Micros {
			t.Errorf("%s: empty result %+v", target, r1)
		}
	}
}

// TestDriverModesAgree is the unit-sized version of the benchmark's
// determinism gate: at workers=1 one seeded op stream must leave the same
// final-state checksum AND return the same values to its reads on all five
// targets — three concurrency-control backends, the shard-labelled store,
// and a TCP round trip through the RESP codec. (The name predates the
// merge of "backends" and "modes" into targets.)
func TestDriverModesAgree(t *testing.T) {
	for _, mix := range Mixes {
		t.Run(mix.Name, func(t *testing.T) {
			cfg := testConfig(1)
			cfg.Mix, cfg.Ops, cfg.ZipfS = mix, 1500, 1.2
			var first Result
			for i, target := range Targets {
				res := runTarget(t, target, cfg)
				if res.Checksum == 0 || res.ReadFold == 0 {
					t.Fatalf("%s: zero checksum or read fold (empty store?): %+v", target, res)
				}
				if i == 0 {
					first = res
				} else if res.Checksum != first.Checksum || res.ReadFold != first.ReadFold {
					t.Errorf("%s disagrees with %s: checksum %x vs %x, read fold %x vs %x",
						target, first.Target, res.Checksum, first.Checksum, res.ReadFold, first.ReadFold)
				}
			}
		})
	}
}

// wrongReader corrupts one value of its nth transactional read.
type wrongReader struct {
	Driver
	n int
}

func (d *wrongReader) Atomic(getKeys, putKeys, putVals, got []uint64) error {
	err := d.Driver.Atomic(getKeys, putKeys, putVals, got)
	if len(got) > 0 {
		if d.n--; d.n == 0 {
			got[len(got)-1]++
		}
	}
	return err
}

// TestReadFoldCatchesWrongRead: a driver that returns one wrong value
// leaves the store (and so the checksum) untouched — only the read fold
// can see it, and it must.
func TestReadFoldCatchesWrongRead(t *testing.T) {
	cfg := testConfig(1)
	cfg.Mix = Mixes[2] // large-txn
	good := runTarget(t, "stm", cfg)
	setup, err := NewTarget("stm", 0, testCapacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := setup.New
	setup.New = func(w int) (Driver, error) {
		d, err := inner(w)
		return &wrongReader{Driver: d, n: 5}, err
	}
	bad, err := Run(setup, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Checksum != good.Checksum {
		t.Fatalf("a wrong read changed the store: checksum %x vs %x", bad.Checksum, good.Checksum)
	}
	if bad.ReadFold == good.ReadFold {
		t.Fatalf("read fold %x did not notice a wrong read", bad.ReadFold)
	}
}

// TestAllMixesAllBackends smoke-runs the full grid shape — every mix on
// every target, several workers — at small scale.
func TestAllMixesAllBackends(t *testing.T) {
	for _, mix := range Mixes {
		for _, target := range Targets {
			cfg := testConfig(4)
			cfg.Mix, cfg.Ops = mix, 2000
			r := runTarget(t, target, cfg)
			if r.Commits < uint64(cfg.Ops) {
				t.Errorf("%s/%s: %d commits for %d ops", mix.Name, target, r.Commits, cfg.Ops)
			}
			if r.Mix != mix.Name || r.Target != target || r.Workers != 4 || r.Ops != cfg.Ops {
				t.Errorf("%s/%s: mislabeled result %+v", mix.Name, target, r)
			}
			if sharded := target == "sharded" || target == "net"; sharded != (r.Shards == 4) {
				t.Errorf("%s/%s: shards = %d", mix.Name, target, r.Shards)
			}
			if target != "net" && r.WireRetries != 0 {
				t.Errorf("%s/%s: in-process target reports %d wire retries", mix.Name, target, r.WireRetries)
			}
		}
	}
}

func TestMixPercentagesSum(t *testing.T) {
	for _, m := range Mixes {
		if s := m.GetPct + m.PutPct + m.TransferPct + m.BatchPct; s != 100 {
			t.Errorf("mix %s: percentages sum to %d", m.Name, s)
		}
		if m.BatchPct > 0 && (m.BatchGets == 0 || m.BatchPuts == 0) {
			t.Errorf("mix %s: batch ops without batch sizes", m.Name)
		}
	}
}

func TestMixByNameUnknown(t *testing.T) {
	if _, err := MixByName("nope"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestBadConfig: every malformed cell is an error from Run (never a panic
// in a worker goroutine, which is what zipf-s <= 1 used to be), and so is
// every unknown or malformed target.
func TestBadConfig(t *testing.T) {
	bad := map[string]func(*Config){
		"workers":          func(c *Config) { c.Workers = 0 },
		"ops":              func(c *Config) { c.Ops = 0 },
		"keyspace":         func(c *Config) { c.Keyspace = 0 },
		"zipf skew":        func(c *Config) { c.ZipfS = 1.0 },
		"percentages":      func(c *Config) { c.Mix.GetPct++ },
		"percentages sign": func(c *Config) { c.Mix.GetPct, c.Mix.BatchPct = 110, -10 },
		"batch_gets":       func(c *Config) { c.Mix.BatchGets = 1024 },
		"batch_puts":       func(c *Config) { c.Mix.BatchPuts = 512 },
	}
	for want, mutate := range bad {
		for _, target := range []string{"stm", "net"} {
			cfg := testConfig(1)
			mutate(&cfg)
			setup, err := NewTarget(target, 4, testCapacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(setup, cfg); err == nil || !strings.Contains(err.Error(), strings.Fields(want)[0]) {
				t.Errorf("%s with bad %s: error %v", target, want, err)
			}
		}
	}

	// The largest batch the wire can carry is accepted.
	cfg := testConfig(1)
	cfg.Mix = Mix{Name: "max-batch", BatchPct: 100, BatchGets: 1023, BatchPuts: 511}
	cfg.Ops, cfg.Keyspace = 20, 2048
	if a, b := runTarget(t, "stm", cfg), runTarget(t, "net", cfg); a.Checksum != b.Checksum || a.ReadFold != b.ReadFold {
		t.Errorf("max-batch: stm and net disagree: %+v vs %+v", a, b)
	}

	if _, err := NewTarget("bogus", 4, 4096, 1); err == nil {
		t.Error("unknown target accepted")
	}
	for _, target := range []string{"sharded", "net"} {
		if _, err := NewTarget(target, 3, 4096, 1); err == nil {
			t.Errorf("%s: non-power-of-two shard count accepted", target)
		}
	}
}
