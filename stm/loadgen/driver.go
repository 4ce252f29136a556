package loadgen

import (
	"fmt"
	"net"
	"slices"

	"tokentm/stm"
	"tokentm/stm/kvstore"
	"tokentm/stm/server"
)

// Driver is one worker's access to a store: an in-process kvstore.Handle
// (NewHandleDriver) or a RESP client over TCP (NetDriver). Reads return
// what they saw (0 for an absent key) so the engine can fold it into
// Result.ReadFold. A Driver that also implements io.Closer is closed by
// Run.
type Driver interface {
	// Get is a single-key point read.
	Get(key uint64) (uint64, error)
	// Put is a single-key blind write.
	Put(key, val uint64) error
	// Atomic reads every getKeys[i] into got[i] and blind-writes putVals[i]
	// to putKeys[i], all as one atomic transaction; len(got) == len(getKeys).
	Atomic(getKeys, putKeys, putVals, got []uint64) error
}

// WireRetrier is implemented by drivers whose transport can surface -RETRY
// (the server's bounded-contention rollback); Retries counts transactions
// that were resent.
type WireRetrier interface {
	Retries() uint64
}

// DriverSetup binds one target for one cell: a per-worker driver factory
// plus the store-level checksum and stats the Result records. Close
// (optional) releases the target itself once the cell is over.
type DriverSetup struct {
	Target   string // result label, one of Targets
	Shards   int    // 0 when the target has no shard structure
	New      func(worker int) (Driver, error)
	Checksum func() (uint64, error)
	Stats    func() kvstore.Stats
	Close    func() error
}

// Targets lists every target NewTarget can build, in presentation order:
// the three unsharded kvstore backends, kvstore.Sharded in process, and a
// live stm/server on a loopback socket with one RESP connection per worker.
// The last two exist for the stm backend only, which is why "backend" and
// "access mode" are one axis and not a cross product.
var Targets = append(append([]string(nil), kvstore.Backends...), "sharded", "net")

// NewTarget builds a fresh store for one cell (for net, a fresh server
// too) and returns its setup. shards applies to sharded and net only.
func NewTarget(name string, shards, capacity, workers int) (DriverSetup, error) {
	inproc := func(store kvstore.Store, shards int) DriverSetup {
		return DriverSetup{
			Target:   name,
			Shards:   shards,
			New:      func(w int) (Driver, error) { return NewHandleDriver(store.Handle(w)), nil },
			Checksum: func() (uint64, error) { return kvstore.Checksum(store), nil },
			Stats:    store.Stats,
		}
	}
	if !slices.Contains(Targets, name) {
		return DriverSetup{}, fmt.Errorf("loadgen: unknown target %q (have %v)", name, Targets)
	}
	if (name == "sharded" || name == "net") && (shards <= 0 || shards&(shards-1) != 0) {
		return DriverSetup{}, fmt.Errorf("loadgen: shard count %d is not a power of two", shards)
	}
	switch name {
	case "sharded":
		return inproc(kvstore.NewSharded(shards, capacity, workers, stm.Options{}), shards), nil
	case "net":
		srv, err := server.New(server.Config{
			Shards:   shards,
			Capacity: capacity,
			MaxConns: workers + 1, // +1 slot for the post-run CHECKSUM connection
		})
		if err != nil {
			return DriverSetup{}, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return DriverSetup{}, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		addr := ln.Addr().String()
		return DriverSetup{
			Target:   name,
			Shards:   shards,
			New:      func(int) (Driver, error) { return DialNet(addr) },
			Checksum: func() (uint64, error) { return NetChecksum(addr) },
			Stats:    srv.Store().Stats,
			// Shutdown drains and closes the listener; Serve then returns
			// (nil unless the accept loop failed before the drain).
			Close: func() error { srv.Shutdown(); return <-served },
		}, nil
	default:
		store, err := kvstore.New(name, capacity, workers)
		if err != nil {
			return DriverSetup{}, err
		}
		return inproc(store, 0), nil
	}
}

// handleDriver adapts a kvstore.Handle. The transaction closure is bound
// once; parameters travel through fields so the steady state does not
// allocate.
type handleDriver struct {
	h                              kvstore.Handle
	getKeys, putKeys, putVals, got []uint64
	fn                             func(kvstore.Tx) error
}

// NewHandleDriver wraps an in-process store handle as a Driver.
func NewHandleDriver(h kvstore.Handle) Driver {
	d := &handleDriver{h: h}
	d.fn = func(tx kvstore.Tx) error {
		for i, k := range d.getKeys {
			d.got[i], _ = tx.Get(k)
		}
		for i, k := range d.putKeys {
			tx.Put(k, d.putVals[i])
		}
		return nil
	}
	return d
}

func (d *handleDriver) Get(key uint64) (uint64, error) {
	v, _, _ := d.h.Get(key)
	return v, nil
}

func (d *handleDriver) Put(key, val uint64) error {
	d.h.Put(key, val)
	return nil
}

func (d *handleDriver) Atomic(getKeys, putKeys, putVals, got []uint64) error {
	d.getKeys, d.putKeys, d.putVals, d.got = getKeys, putKeys, putVals, got
	_, err := d.h.Txn(false, d.fn)
	return err
}
