// Package server is the network front end for the token-protocol KV store:
// a TCP server speaking the RESP-lite dialect of package stm/resp in front
// of a kvstore.Sharded (one stm.TM whose keyspace is labelled into N hash
// shards).
//
// Wire contract (values are uint64s in decimal ASCII; `$-1` is "absent"):
//
//	GET key            -> *3 [$value|$-1, :shard, :serial]
//	SET key val        -> *2 [:shard, :serial]
//	MGET k1..kn        -> *2 [*n of $value|$-1, serials]
//	MSET k1 v1 ...     -> *2 [:pairs, serials]
//	MULTI              -> +OK   (then queued commands answer +QUEUED)
//	EXEC               -> *2 [*results, serials]
//	DISCARD            -> +OK
//	PING               -> +PONG
//	INFO               -> $bulk (deterministic store counters, see conn.go)
//	CHECKSUM           -> :checksum (quiescent stores only)
//	SHUTDOWN           -> +OK, then the server drains and exits
//
// `serials` is always an array of NumShards integers: the operation's commit
// serial in the slot of every shard it touched, 0 for shards it never
// touched. The store has one serial clock, so every serial — a GET's, a
// SET's, each nonzero slot of a vector — is a point in one total order of
// commits, comparable across shards; the over-the-wire stress test replays
// the client journals merged in that order through the kvstore oracle. A
// read-only MGET commits at its read serial (0 before the first commit) and
// draws none.
//
// MULTI queues GET/SET/MGET/MSET, up to 65536 keys (past that, -ERR MULTI
// queue full, and EXEC answers EXECABORT), and EXEC runs the queue as ONE
// atomic transaction. If the store's contention bound (MaxAttempts) abandons the
// transaction, the client sees `-RETRY ...` with all effects rolled back —
// the transaction is all-or-nothing across shards, and a drain racing an
// EXEC either commits it fully or surfaces -RETRY, never a torn prefix.
//
// Each connection is one goroutine bound to one store worker slot, so
// steady-state service, MULTI…EXEC included, allocates nothing per operation
// (per-worker scratch in the handle, per-connection scratch and a flat
// command queue in the conn).
// Responses are flushed when the read buffer drains, so pipelined command
// batches get batched replies.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tokentm/stm"
	"tokentm/stm/kvstore"
)

// Config parameterizes a Server. Zero values take defaults.
type Config struct {
	Shards   int // store shard labels (power of two); default 4
	Capacity int // store slot capacity; default 1 << 16

	// MaxConns bounds concurrent connections; each connection owns one
	// store worker slot for its lifetime. Accepts past the bound are
	// refused with -ERR. Default 64.
	MaxConns int

	// ReadTimeout, when positive, bounds each wait on the peer: for the
	// next command, and for the peer to take the replies written to it. A
	// connection that stays silent, or stops reading, longer is dropped.
	ReadTimeout time.Duration

	// DrainTimeout bounds the graceful drain: connections that have not
	// finished their in-flight command batch by then are force-closed.
	// Default 5s.
	DrainTimeout time.Duration

	// Options.MaxAttempts is the server-side retry bound: EXEC retries
	// conflicted transactions internally up to that bound, then rolls back
	// and surfaces -RETRY to the client. Zero keeps stm's default
	// (retry forever — no -RETRY ever reaches a client).
	Options stm.Options
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Capacity == 0 {
		c.Capacity = 1 << 16
	}
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server owns the sharded store and the listener. Create with New, start
// with Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	store   *kvstore.Sharded
	handles []*kvstore.ShardedHandle // one per worker slot, reused across connections

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	slots chan int

	draining atomic.Bool
	drained  chan struct{} // closed when the last connection unregisters while draining
}

// New builds a server and its backing store.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("server: shard count %d is not a power of two", cfg.Shards)
	}
	if cfg.MaxConns < 1 {
		return nil, fmt.Errorf("server: MaxConns %d < 1", cfg.MaxConns)
	}
	s := &Server{
		cfg:     cfg,
		store:   kvstore.NewSharded(cfg.Shards, cfg.Capacity, cfg.MaxConns, cfg.Options),
		conns:   make(map[*conn]struct{}),
		slots:   make(chan int, cfg.MaxConns),
		drained: make(chan struct{}),
	}
	s.handles = make([]*kvstore.ShardedHandle, cfg.MaxConns)
	for i := range s.handles {
		s.handles[i] = s.store.Handle(i).(*kvstore.ShardedHandle)
		s.slots <- i
	}
	return s, nil
}

// Store exposes the backing store for in-process prepopulation, checksums
// and test oracles. Snapshot methods (ForEach, Checksum) require quiescence.
func (s *Server) Store() *kvstore.Sharded { return s.store }

// Addr returns the listener address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// errRefused is the refusal line written to connections past MaxConns; raw
// bytes because the connection never gets a codec.
var errRefused = []byte("-ERR max connections reached\r\n")

// Serve accepts connections on ln until the listener closes. A drain-driven
// close returns nil; anything else returns the accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.ln = ln
	// A Shutdown that ran before ln was registered found nothing to close;
	// one that runs after this critical section closes ln itself.
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		ln.Close()
		return nil
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		select {
		case id := <-s.slots:
			c := newConn(s, nc, nc, id)
			if !s.register(c) { // drain began after Accept
				nc.Close()
				s.slots <- id
				continue
			}
			go func() {
				defer func() {
					// A handler panic ends this connection only: flush the
					// replies already buffered, then one -ERR naming it. A
					// panic inside a transaction rolled it back on the way out.
					if r := recover(); r != nil {
						c.w.WriteErrorString(fmt.Sprintf("ERR internal: %v", r))
						c.w.Flush()
					}
					s.unregister(c)
					nc.Close()
					s.slots <- id
				}()
				c.serve()
			}()
		default:
			nc.Write(errRefused)
			nc.Close()
		}
	}
}

func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	empty := len(s.conns) == 0
	s.mu.Unlock()
	if empty && s.draining.Load() {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
}

// Shutdown drains the server: stop accepting, wake every connection blocked
// on a read, let in-flight command batches finish (each in-flight EXEC
// commits fully or surfaces -RETRY — never a torn prefix), then force-close
// stragglers after DrainTimeout. Safe to call multiple times; only the
// first call drains.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		<-s.drained
		return
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake blocked readers: an expired deadline surfaces as a read error,
	// and the connection loop treats any read error while draining as a
	// graceful goodbye (after flushing buffered replies).
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	empty := len(s.conns) == 0
	s.mu.Unlock()
	if empty {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
		return
	}
	select {
	case <-s.drained:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-s.drained
	}
}
