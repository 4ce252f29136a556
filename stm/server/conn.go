package server

import (
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"tokentm/stm"
	"tokentm/stm/kvstore"
	"tokentm/stm/resp"
)

// conn serves one connection: a resp codec pair over the socket, one store
// worker handle, and reusable scratch so the steady-state point-op path
// allocates nothing. Only its own goroutine touches any field except nc
// (which Shutdown pokes with a read deadline — net.Conn methods are
// goroutine-safe by contract).
type conn struct {
	srv *Server
	nc  net.Conn // nil in codec-only tests; deadline/drain poking only
	r   *resp.Reader
	w   *resp.Writer // encodes into c.Write
	h   *kvstore.ShardedHandle

	out  io.Writer // the socket side of w
	werr error     // out's first write error; the connection is dead

	// Scratch, reused across commands.
	keys    []uint64
	vals    []uint64
	oks     []bool
	info    []byte
	queue   []qcmd
	inMulti bool
	qerr    bool // a queued command failed to parse; EXEC must refuse

	// Bound transaction closures (allocated once, parameters via fields).
	mgetFn func(kvstore.Tx) error
	msetFn func(kvstore.Tx) error
	execFn func(kvstore.Tx) error
}

// qcmd is one queued MULTI command. rvals/rok capture GET/MGET results
// during EXEC's transaction for the reply phase.
type qcmd struct {
	op    byte // 'g' GET, 's' SET, 'm' MGET, 'M' MSET
	keys  []uint64
	vals  []uint64
	rvals []uint64
	rok   []bool
}

func newConn(s *Server, rw io.ReadWriter, nc net.Conn, slot int) *conn {
	c := &conn{
		srv: s,
		nc:  nc,
		r:   resp.NewReader(rw),
		h:   s.handles[slot],
		out: rw,
	}
	c.w = resp.NewWriter(c)
	c.mgetFn = func(tx kvstore.Tx) error {
		c.vals = c.vals[:0]
		c.oks = c.oks[:0]
		for _, k := range c.keys {
			v, ok := tx.Get(k)
			c.vals = append(c.vals, v)
			c.oks = append(c.oks, ok)
		}
		return nil
	}
	c.msetFn = func(tx kvstore.Tx) error {
		for i, k := range c.keys {
			tx.Put(k, c.vals[i])
		}
		return nil
	}
	c.execFn = func(tx kvstore.Tx) error {
		for i := range c.queue {
			q := &c.queue[i]
			switch q.op {
			case 'g', 'm':
				q.rvals = q.rvals[:0]
				q.rok = q.rok[:0]
				for _, k := range q.keys {
					v, ok := tx.Get(k)
					q.rvals = append(q.rvals, v)
					q.rok = append(q.rok, ok)
				}
			default: // 's', 'M'
				for j, k := range q.keys {
					tx.Put(k, q.vals[j])
				}
			}
		}
		return nil
	}
	return c
}

// errShutdown makes the serving loop close this connection after a SHUTDOWN
// command's +OK has been flushed.
var errShutdown = errors.New("server: shutdown requested")

// serve runs the connection loop: read a command, dispatch, flush replies
// when the input buffer drains (pipelined batches get batched replies).
// Every exit path flushes what it can; the caller closes the socket.
func (c *conn) serve() {
	for {
		if t := c.srv.cfg.ReadTimeout; t > 0 && c.nc != nil && !c.srv.draining.Load() {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		args, err := c.r.ReadCommand()
		if err != nil {
			if resp.IsProtocol(err) {
				// Protocol damage: report and hang up (framing is gone).
				c.w.WriteErrorString("ERR protocol: " + err.Error())
			}
			// Read errors (EOF, deadline pokes from a drain) end the
			// connection; flush any replies the client has not seen.
			c.w.Flush()
			return
		}
		// A reply batch past the writer's bound is written through mid-batch;
		// if that write failed, stop here rather than read on.
		if err := c.dispatch(args); err != nil || c.werr != nil {
			c.w.Flush()
			return
		}
		if c.r.Buffered() == 0 {
			if err := c.w.Flush(); err != nil {
				return
			}
			if c.srv.draining.Load() {
				return // graceful goodbye between command batches
			}
		}
	}
}

// Write passes the writer's output to the socket, noting a failure. With a
// ReadTimeout, each write gets that long for the peer to take it, so a peer
// that stops reading its replies cannot pin the slot.
func (c *conn) Write(p []byte) (int, error) {
	if t := c.srv.cfg.ReadTimeout; t > 0 && c.nc != nil {
		c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	n, err := c.out.Write(p)
	if err != nil && c.werr == nil {
		c.werr = err
	}
	return n, err
}

// dispatch serves one command. A non-nil return closes the connection;
// client-level mistakes (bad arity, bad integer) answer -ERR and keep it.
func (c *conn) dispatch(args [][]byte) error {
	cmd := args[0]
	if c.inMulti && !cmdIs(cmd, "EXEC") && !cmdIs(cmd, "DISCARD") && !cmdIs(cmd, "MULTI") {
		return c.enqueue(args)
	}
	switch {
	case cmdIs(cmd, "GET"):
		if len(args) != 2 {
			return c.arity("GET")
		}
		k, ok := parseKey(args[1])
		if !ok {
			return c.badKey()
		}
		v, found, shard, serial := c.h.GetSharded(k)
		c.replyGet(v, found, shard, serial)
	case cmdIs(cmd, "SET"):
		if len(args) != 3 {
			return c.arity("SET")
		}
		k, ok := parseKey(args[1])
		if !ok {
			return c.badKey()
		}
		v, ok := resp.ParseUint(args[2])
		if !ok {
			return c.badInt()
		}
		shard, serial := c.h.PutSharded(k, v)
		c.replySet(shard, serial)
	case cmdIs(cmd, "MGET"):
		if len(args) < 2 {
			return c.arity("MGET")
		}
		c.keys = c.keys[:0]
		for _, a := range args[1:] {
			k, ok := parseKey(a)
			if !ok {
				return c.badKey()
			}
			c.keys = append(c.keys, k)
		}
		serials, err := c.h.TxnSerials(true, c.mgetFn)
		if err != nil {
			return c.txnErr(err)
		}
		c.w.WriteArrayHeader(2)
		c.w.WriteArrayHeader(len(c.vals))
		for i, v := range c.vals {
			if c.oks[i] {
				c.w.WriteBulkUint(v)
			} else {
				c.w.WriteNull()
			}
		}
		c.writeSerials(serials)
	case cmdIs(cmd, "MSET"):
		if len(args) < 3 || len(args)%2 != 1 {
			return c.arity("MSET")
		}
		c.keys = c.keys[:0]
		c.vals = c.vals[:0]
		for i := 1; i < len(args); i += 2 {
			k, ok := parseKey(args[i])
			if !ok {
				return c.badKey()
			}
			v, ok := resp.ParseUint(args[i+1])
			if !ok {
				return c.badInt()
			}
			c.keys = append(c.keys, k)
			c.vals = append(c.vals, v)
		}
		serials, err := c.h.TxnSerials(false, c.msetFn)
		if err != nil {
			return c.txnErr(err)
		}
		c.w.WriteArrayHeader(2)
		c.w.WriteUint(uint64(len(c.keys)))
		c.writeSerials(serials)
	case cmdIs(cmd, "MULTI"):
		if c.inMulti {
			c.w.WriteErrorString("ERR MULTI calls can not be nested")
			return nil
		}
		c.inMulti = true
		c.qerr = false
		c.queue = c.queue[:0]
		c.w.WriteSimple("OK")
	case cmdIs(cmd, "EXEC"):
		return c.exec()
	case cmdIs(cmd, "DISCARD"):
		if !c.inMulti {
			c.w.WriteErrorString("ERR DISCARD without MULTI")
			return nil
		}
		c.resetMulti()
		c.w.WriteSimple("OK")
	case cmdIs(cmd, "PING"):
		c.w.WriteSimple("PONG")
	case cmdIs(cmd, "INFO"):
		c.w.WriteBulk(c.buildInfo())
	case cmdIs(cmd, "CHECKSUM"):
		// Quiescent stores only: ForEach under concurrent writers is a
		// data race by the Store contract. The benchmark gate calls this
		// after its drivers stop. Bulk-encoded: checksums use the full
		// uint64 range, which the `:` integer reply (int64) cannot carry.
		c.w.WriteBulkUint(kvstore.Checksum(c.srv.store))
	case cmdIs(cmd, "SHUTDOWN"):
		c.w.WriteSimple("OK")
		c.w.Flush()
		go c.srv.Shutdown()
		return errShutdown
	default:
		c.w.WriteErrorString("ERR unknown command")
	}
	return nil
}

// enqueue parses and queues one command inside MULTI. Parse failures poison
// the queue: the client still gets per-command -ERR, and EXEC refuses.
func (c *conn) enqueue(args [][]byte) error {
	var q qcmd
	cmd := args[0]
	bad := func(reply func() error) error {
		c.qerr = true
		return reply()
	}
	switch {
	case cmdIs(cmd, "GET"), cmdIs(cmd, "MGET"):
		if (cmdIs(cmd, "GET") && len(args) != 2) || len(args) < 2 {
			return bad(func() error { return c.arity("queued command") })
		}
		q.op = 'm'
		if cmdIs(cmd, "GET") {
			q.op = 'g'
		}
		for _, a := range args[1:] {
			k, ok := parseKey(a)
			if !ok {
				return bad(c.badKey)
			}
			q.keys = append(q.keys, k)
		}
	case cmdIs(cmd, "SET"), cmdIs(cmd, "MSET"):
		if (cmdIs(cmd, "SET") && len(args) != 3) || len(args) < 3 || len(args)%2 != 1 {
			return bad(func() error { return c.arity("queued command") })
		}
		q.op = 'M'
		if cmdIs(cmd, "SET") {
			q.op = 's'
		}
		for i := 1; i < len(args); i += 2 {
			k, ok := parseKey(args[i])
			if !ok {
				return bad(c.badKey)
			}
			v, ok := resp.ParseUint(args[i+1])
			if !ok {
				return bad(c.badInt)
			}
			q.keys = append(q.keys, k)
			q.vals = append(q.vals, v)
		}
	default:
		c.qerr = true
		c.w.WriteErrorString("ERR command not allowed in MULTI")
		return nil
	}
	c.queue = append(c.queue, q)
	c.w.WriteSimple("QUEUED")
	return nil
}

// exec runs the queued commands as one transaction of the store's one TM.
func (c *conn) exec() error {
	if !c.inMulti {
		c.w.WriteErrorString("ERR EXEC without MULTI")
		return nil
	}
	if c.qerr {
		c.resetMulti()
		c.w.WriteErrorString("EXECABORT transaction discarded because of previous errors")
		return nil
	}
	serials, err := c.h.TxnSerials(false, c.execFn)
	queue := c.queue
	c.resetMulti()
	if err != nil {
		return c.txnErr(err)
	}
	c.w.WriteArrayHeader(2)
	c.w.WriteArrayHeader(len(queue))
	for i := range queue {
		q := &queue[i]
		switch q.op {
		case 'g':
			if q.rok[0] {
				c.w.WriteBulkUint(q.rvals[0])
			} else {
				c.w.WriteNull()
			}
		case 'm':
			c.w.WriteArrayHeader(len(q.keys))
			for j := range q.keys {
				if q.rok[j] {
					c.w.WriteBulkUint(q.rvals[j])
				} else {
					c.w.WriteNull()
				}
			}
		default:
			c.w.WriteSimple("OK")
		}
	}
	c.writeSerials(serials)
	return nil
}

func (c *conn) resetMulti() {
	c.inMulti = false
	c.qerr = false
	c.queue = c.queue[:0]
}

// txnErr maps a transaction error onto the wire: the contention bound's
// rollback becomes -RETRY (the transaction happened not at all; the client
// may retry), anything else is a server bug worth hanging up over.
func (c *conn) txnErr(err error) error {
	if errors.Is(err, stm.ErrAborted) {
		c.w.WriteErrorString("RETRY transaction aborted by contention bound; rolled back")
		return nil
	}
	c.w.WriteErrorString("ERR internal: " + err.Error())
	return err
}

func (c *conn) arity(cmd string) error {
	c.w.WriteErrorString("ERR wrong number of arguments for " + cmd)
	return nil
}

func (c *conn) badKey() error {
	c.w.WriteErrorString("ERR key must be a decimal integer >= 1")
	return nil
}

func (c *conn) badInt() error {
	c.w.WriteErrorString("ERR value is not a decimal uint64")
	return nil
}

// parseKey parses a key: a uint64 >= 1 (zero marks empty slots in the
// store, so it is not addressable).
//
//tokentm:allocfree
func parseKey(b []byte) (uint64, bool) {
	k, ok := resp.ParseUint(b)
	if !ok || k == 0 {
		return 0, false
	}
	return k, true
}

// cmdIs reports whether command word b equals name, ASCII-case-insensitively.
// name must be upper-case.
//
//tokentm:allocfree
func cmdIs(b []byte, name string) bool {
	if len(b) != len(name) {
		return false
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if ch >= 'a' && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != name[i] {
			return false
		}
	}
	return true
}

// replyGet writes GET's reply: value (or null), owning shard, and the commit
// serial at the read's serialization point.
//
//tokentm:allocfree
func (c *conn) replyGet(v uint64, found bool, shard int, serial uint64) {
	c.w.WriteArrayHeader(3)
	if found {
		c.w.WriteBulkUint(v)
	} else {
		c.w.WriteNull()
	}
	c.w.WriteUint(uint64(shard))
	c.w.WriteUint(serial)
}

// replySet writes SET's reply: owning shard and the commit serial.
//
//tokentm:allocfree
func (c *conn) replySet(shard int, serial uint64) {
	c.w.WriteArrayHeader(2)
	c.w.WriteUint(uint64(shard))
	c.w.WriteUint(serial)
}

// writeSerials writes the per-shard serial array every transactional reply
// carries: NumShards integers, the commit serial for each touched shard and
// 0 for the others.
//
//tokentm:allocfree
func (c *conn) writeSerials(serials []uint64) {
	c.w.WriteArrayHeader(len(serials))
	for _, s := range serials {
		c.w.WriteUint(s)
	}
}

// buildInfo renders the INFO payload into the connection's scratch buffer:
// purely store-derived counters in a fixed order, so on a quiescent store
// two INFO calls return identical bytes (the determinism the benchmark
// checker leans on). Fields mirror stm.Stats, each transaction counted once,
// then one shardN_serial line per shard: the store's one serial clock,
// printed N times so the key set stays that of a store with a clock per
// shard.
func (c *conn) buildInfo() []byte {
	b := c.info[:0]
	line := func(name string, v uint64) {
		b = append(b, name...)
		b = append(b, ':')
		b = strconv.AppendUint(b, v, 10)
		b = append(b, '\n')
	}
	st := c.srv.store.STMStats()
	line("shards", uint64(c.srv.store.NumShards()))
	line("commits", st.Commits)
	line("aborts", st.Aborts)
	st.Each(func(name string, v uint64) {
		b = append(b, "stm_"...)
		line(name, v)
	})
	serial := c.srv.store.SerialClock()
	for i := 0; i < c.srv.store.NumShards(); i++ {
		b = append(b, "shard"...)
		b = strconv.AppendUint(b, uint64(i), 10)
		b = append(b, "_serial:"...)
		b = strconv.AppendUint(b, serial, 10)
		b = append(b, '\n')
	}
	c.info = b
	return b
}
