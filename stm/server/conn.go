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
// worker handle, and reusable scratch so that steady-state service — point
// GET/SET, MGET/MSET and MULTI…EXEC — allocates nothing. Only its own
// goroutine touches any field except nc (which Shutdown pokes with a read
// deadline — net.Conn methods are goroutine-safe by contract).
type conn struct {
	srv *Server
	nc  net.Conn // nil in codec-only tests; deadline/drain poking only
	r   *resp.Reader
	w   *resp.Writer // encodes into c.Write
	h   *kvstore.ShardedHandle

	out  io.Writer // the socket side of w
	werr error     // out's first write error; the connection is dead

	// The flat queue, reused across transactions: MULTI's queued commands,
	// or a direct command's one. Each qcmd's [lo, hi) indexes keys, vals
	// and oks alike. A SET/MSET's vals are the values it writes; a
	// GET/MGET's vals and oks are what execFn read.
	queue   []qcmd
	keys    []uint64
	vals    []uint64
	oks     []bool
	inMulti bool
	qerr    bool // a queued command was refused; EXEC must refuse

	info   []byte                 // INFO scratch
	execFn func(kvstore.Tx) error // runs the queue; bound once
}

// qcmd is one queued command: its op and its range of the flat queue.
type qcmd struct {
	op     byte // 'g' GET, 's' SET, 'm' MGET, 'M' MSET
	lo, hi int
}

// maxQueuedKeys caps the keys one MULTI may queue, so a client that never
// sends EXEC cannot grow the connection's queue without bound.
const maxQueuedKeys = 1 << 16

// fault is why a GET/SET/MGET/MSET is refused.
type fault uint8

const (
	noFault fault = iota
	badArity
	badKey
	badInt
	queueFull
)

func newConn(s *Server, rw io.ReadWriter, nc net.Conn, slot int) *conn {
	c := &conn{
		srv: s,
		nc:  nc,
		r:   resp.NewReader(rw),
		h:   s.handles[slot],
		out: rw,
	}
	c.w = resp.NewWriter(c)
	c.execFn = func(tx kvstore.Tx) error {
		for _, q := range c.queue {
			for i := q.lo; i < q.hi; i++ {
				if q.op == 'g' || q.op == 'm' {
					c.vals[i], c.oks[i] = tx.Get(c.keys[i])
				} else {
					tx.Put(c.keys[i], c.vals[i])
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
	switch {
	case cmdIs(cmd, "GET"):
		return c.data('g', "GET", args)
	case cmdIs(cmd, "SET"):
		return c.data('s', "SET", args)
	case cmdIs(cmd, "MGET"):
		return c.data('m', "MGET", args)
	case cmdIs(cmd, "MSET"):
		return c.data('M', "MSET", args)
	case cmdIs(cmd, "MULTI"):
		if c.inMulti {
			c.w.WriteErrorString("ERR MULTI calls can not be nested")
			return nil
		}
		c.clearQueue()
		c.inMulti = true
		c.qerr = false
		c.w.WriteSimple("OK")
	case cmdIs(cmd, "EXEC"):
		return c.exec()
	case cmdIs(cmd, "DISCARD"):
		if !c.inMulti {
			c.w.WriteErrorString("ERR DISCARD without MULTI")
			return nil
		}
		c.inMulti = false
		c.w.WriteSimple("OK")
	case c.inMulti:
		c.qerr = true
		c.w.WriteErrorString("ERR command not allowed in MULTI")
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

// data serves GET, SET, MGET or MSET, named name in arity errors. The
// command is parsed onto the flat queue; inside MULTI it stays queued, and
// otherwise it runs at once: GET and SET on the store's point fast paths,
// MGET and MSET as a one-command queue.
func (c *conn) data(op byte, name string, args [][]byte) error {
	if !c.inMulti {
		c.clearQueue()
	}
	q, f := c.parse(op, args)
	if f == noFault && c.inMulti && len(c.keys) > maxQueuedKeys {
		c.trim(q.lo)
		f = queueFull
	}
	if f != noFault {
		return c.refuse(f, name)
	}
	c.queue = append(c.queue, q)
	if c.inMulti {
		c.w.WriteSimple("QUEUED")
		return nil
	}
	switch op {
	case 'g':
		v, found, shard, serial := c.h.GetSharded(c.keys[q.lo])
		c.replyGet(v, found, shard, serial)
		return nil
	case 's':
		shard, serial := c.h.PutSharded(c.keys[q.lo], c.vals[q.lo])
		c.replySet(shard, serial)
		return nil
	}
	serials, err := c.h.TxnSerials(op == 'm', c.execFn)
	if err != nil {
		return c.txnErr(err)
	}
	c.w.WriteArrayHeader(2)
	if op == 'm' {
		c.writeResult(q)
	} else {
		c.w.WriteUint(uint64(q.hi - q.lo))
	}
	c.writeSerials(serials)
	return nil
}

// parse appends the keys of a GET or MGET, or the key/value pairs of a SET
// or MSET, to the flat queue and returns the qcmd naming them. A refused
// command leaves the queue as it found it.
func (c *conn) parse(op byte, args [][]byte) (qcmd, fault) {
	n := len(args) - 1
	pairs := op == 's' || op == 'M'
	if n < 1 || (op == 'g' && n != 1) || (op == 's' && n != 2) || (pairs && n%2 != 0) {
		return qcmd{}, badArity
	}
	q := qcmd{op: op, lo: len(c.keys)}
	for i := 1; i <= n; i++ {
		k, ok := parseKey(args[i])
		if !ok {
			c.trim(q.lo)
			return qcmd{}, badKey
		}
		var v uint64
		if pairs {
			i++
			if v, ok = resp.ParseUint(args[i]); !ok {
				c.trim(q.lo)
				return qcmd{}, badInt
			}
		}
		c.keys = append(c.keys, k)
		c.vals = append(c.vals, v)
		c.oks = append(c.oks, false)
	}
	q.hi = len(c.keys)
	return q, noFault
}

// refuse answers a command parse or the queue bound refused. Inside MULTI
// it poisons the transaction, so EXEC refuses too.
func (c *conn) refuse(f fault, name string) error {
	if c.inMulti {
		c.qerr = true
		name = "queued command"
	}
	switch f {
	case badArity:
		c.w.WriteErrorString("ERR wrong number of arguments for " + name)
	case badKey:
		c.w.WriteErrorString("ERR key must be a decimal integer >= 1")
	case badInt:
		c.w.WriteErrorString("ERR value is not a decimal uint64")
	default:
		c.w.WriteErrorString("ERR MULTI queue full")
	}
	return nil
}

// exec runs the queued commands as one transaction of the store's one TM.
func (c *conn) exec() error {
	if !c.inMulti {
		c.w.WriteErrorString("ERR EXEC without MULTI")
		return nil
	}
	c.inMulti = false
	if c.qerr {
		c.w.WriteErrorString("EXECABORT transaction discarded because of previous errors")
		return nil
	}
	serials, err := c.h.TxnSerials(false, c.execFn)
	if err != nil {
		return c.txnErr(err)
	}
	c.w.WriteArrayHeader(2)
	c.w.WriteArrayHeader(len(c.queue))
	for _, q := range c.queue {
		c.writeResult(q)
	}
	c.writeSerials(serials)
	return nil
}

// writeResult writes one queued command's result: a GET's value, an MGET's
// array of values, or a write's +OK.
func (c *conn) writeResult(q qcmd) {
	switch q.op {
	case 'g':
		c.writeValue(q.lo)
	case 'm':
		c.w.WriteArrayHeader(q.hi - q.lo)
		for i := q.lo; i < q.hi; i++ {
			c.writeValue(i)
		}
	default:
		c.w.WriteSimple("OK")
	}
}

// writeValue writes the value read into queue slot i, or null.
func (c *conn) writeValue(i int) {
	if c.oks[i] {
		c.w.WriteBulkUint(c.vals[i])
	} else {
		c.w.WriteNull()
	}
}

// trim cuts the flat queue's arrays back to n keys.
func (c *conn) trim(n int) {
	c.keys, c.vals, c.oks = c.keys[:n], c.vals[:n], c.oks[:n]
}

func (c *conn) clearQueue() {
	c.queue = c.queue[:0]
	c.trim(0)
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

// parseKey parses a key: a uint64 >= 1 (zero marks empty slots in the
// store, so it is not addressable).
func parseKey(b []byte) (uint64, bool) {
	k, ok := resp.ParseUint(b)
	if !ok || k == 0 {
		return 0, false
	}
	return k, true
}

// cmdIs reports whether command word b equals name, ASCII-case-insensitively.
// name must be upper-case.
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
func (c *conn) replySet(shard int, serial uint64) {
	c.w.WriteArrayHeader(2)
	c.w.WriteUint(uint64(shard))
	c.w.WriteUint(serial)
}

// writeSerials writes the per-shard serial array every transactional reply
// carries: NumShards integers, the commit serial for each touched shard and
// 0 for the others.
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
