package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"tokentm/stm"
	"tokentm/stm/resp"
	"tokentm/stm/server"
)

// Wire workloads: the worker process is the one closed-loop client (2
// connections); the system under test is a separate server process — this
// binary re-executed in -role server — so cpu_us_per_op and mem_mb are the
// server's, never the load generator's.

// serverMaxAttempts bounds the server's internal transaction retries, so a
// pathological conflict surfaces as -RETRY (which the client resends a
// bounded number of times and then counts as a failed op) instead of a
// stuck connection.
const (
	serverMaxAttempts = 256
	clientResends     = 3
)

// serverMaxConns is the two load connections, the control connection, and
// one spare. The server builds every connection slot's per-shard mark tables
// up front (8 bytes x slots each), so this number is most of its RSS on
// wire-pipelined: 16 slots would be 64 MB of marks beside 12 MB of data.
const serverMaxConns = 4

// serverMain is -role server: build the store, listen on a kernel-chosen
// loopback port, announce it, serve until stdin closes, drain, exit 0.
// Tying the lifetime to stdin means a worker that dies for any reason takes
// its server with it — no orphan listeners.
func serverMain(shards, capacity int) int {
	srv, err := server.New(server.Config{
		Shards: shards, Capacity: capacity, MaxConns: serverMaxConns,
		Options: stm.Options{MaxAttempts: serverMaxAttempts},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-bench server:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-bench server:", err)
		return 1
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	go func() {
		io.Copy(io.Discard, os.Stdin) // returns at EOF: the worker let go
		srv.Shutdown()
	}()
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "tokentm-bench server:", err)
		return 1
	}
	srv.Shutdown() // idempotent; returns once the drain has finished
	return 0
}

// serverProc is the running server child.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

func startServer(w workload) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role", "server",
		"-shards", strconv.Itoa(w.shards), "-capacity", strconv.Itoa(w.slots))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.gomaxprocs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
	if err != nil || !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("server child did not announce an address (%q, %v)", line, err)
	}
	return &serverProc{cmd: cmd, stdin: stdin, addr: addr}, nil
}

// stop asks the server to drain (by closing its stdin) and requires a clean
// exit; a server that does not leave within the deadline is killed.
func (s *serverProc) stop() error {
	s.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server child did not drain cleanly: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return errors.New("server child did not exit within 15s of shutdown; killed")
	}
}

// kill is the failure-path teardown.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

func (s *serverProc) proc() (procSample, error) { return readProc(s.cmd.Process.Pid) }

// timedReader sits between the socket and the codec in a traced run. It
// counts reply bytes, and while a sampled request is in flight it times
// every Read: the time a request spends blocked there is client.wait, the
// rest of the reply phase is client.parse.
type timedReader struct {
	r     io.Reader
	on    bool
	bytes uint64
	reads [][2]time.Time
}

func (t *timedReader) Read(p []byte) (int, error) {
	if !t.on {
		n, err := t.r.Read(p)
		t.bytes += uint64(n)
		return n, err
	}
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.reads = append(t.reads, [2]time.Time{t0, time.Now()})
	t.bytes += uint64(n)
	return n, err
}

// wireClient is one connection replaying one stream.
type wireClient struct {
	w  workload
	s  *stream
	nc net.Conn
	r  *resp.Reader

	attempted, failed uint64
	retries           uint64 // -RETRY replies seen
	err               error  // first I/O or protocol-shape error

	parse bool   // verify segment: decode values into fold
	fold  uint64 // same definition as applier.fold

	// Traced run only; spans are recorded while tracing is set.
	tr      *tracer
	tm      *timedReader
	tracing bool
	seq     uint64
	wrote   uint64 // request bytes written
}

func dialClient(w workload, s *stream, addr string, tr *tracer) (*wireClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireClient{w: w, s: s, nc: nc, tr: tr}
	if tr != nil {
		c.tm = &timedReader{r: nc}
		c.r = resp.NewReader(c.tm)
	} else {
		c.r = resp.NewReader(nc)
	}
	return c, nil
}

func (c *wireClient) counts() (uint64, uint64) { return c.attempted, c.failed }

// bad records a reply that had the wrong shape; the op counts as failed.
func (c *wireClient) bad(what string, rep resp.Reply) {
	if c.err == nil {
		c.err = fmt.Errorf("%s: unexpected reply %c %q (%d elems)", what, rep.Type, rep.Str, len(rep.Elems))
	}
}

// value folds one `$value | $-1` element.
func (c *wireClient) value(e resp.Reply) bool {
	if e.Type != '$' {
		return false
	}
	if c.parse {
		v, err := strconv.ParseUint(e.Str, 10, 64)
		if !e.Null && err != nil {
			return false
		}
		c.fold = foldRead(c.fold, v, !e.Null)
	}
	return true
}

func ints(es []resp.Reply) bool {
	for _, e := range es {
		if e.Type != ':' {
			return false
		}
	}
	return true
}

// do writes request i and reads, type- and arity-checks every reply.
func (c *wireClient) do(i int) int {
	if c.err != nil { // connection is gone: everything else fails fast
		n := c.w.opsPerReq()
		c.attempted += uint64(n)
		c.failed += uint64(n)
		time.Sleep(time.Millisecond)
		return 0
	}
	root, post := int32(-1), int32(-1)
	traced := false
	if c.tracing {
		if c.seq++; c.seq%wireSpanEvery == 0 {
			traced, c.tm.on = true, true
			root = c.tr.begin("request", -1, c.seq)
		}
	}
	var done int
	for try := 0; ; try++ {
		var wr int32 = -1
		if traced {
			wr = c.tr.begin("client.write", root, c.seq)
		}
		n, err := c.nc.Write(c.s.request(i))
		c.wrote += uint64(n)
		if traced {
			c.tr.end(wr)
			post = c.tr.begin("client.parse", root, c.seq)
		}
		if err != nil {
			c.err = err
			break
		}
		var retry bool
		if c.w.shape == shapePoint {
			done = c.readBatch(i)
		} else {
			done, retry = c.readExec()
		}
		if traced {
			c.tr.end(post)
			for _, rd := range c.tm.reads {
				c.tr.add("client.wait", post, c.seq, rd[0], rd[1])
			}
			c.tm.reads = c.tm.reads[:0]
		}
		if !retry || try == clientResends {
			break
		}
	}
	n := c.w.opsPerReq()
	c.attempted += uint64(n)
	c.failed += uint64(n - done)
	if traced {
		c.tr.end(root)
		c.tm.on = false
	}
	return done
}

// readBatch reads the replies of one pipelined GET/SET batch.
func (c *wireClient) readBatch(i int) (done int) {
	ops := c.s.ops[i*c.w.group : (i+1)*c.w.group]
	for j := range ops {
		rep, err := c.r.ReadReply()
		if err != nil {
			c.err = err
			return done
		}
		ok := rep.Type == '*'
		if ops[j].kind == opGet {
			ok = ok && len(rep.Elems) == 3 && c.value(rep.Elems[0]) && ints(rep.Elems[1:])
		} else {
			ok = ok && len(rep.Elems) == 2 && ints(rep.Elems)
		}
		if ok {
			done++
		} else {
			c.bad("GET/SET", rep)
		}
	}
	return done
}

// readExec reads the four replies of one MULTI/MGET/MSET/EXEC block.
func (c *wireClient) readExec() (done int, retry bool) {
	want := [3]string{"OK", "QUEUED", "QUEUED"}
	for _, s := range want {
		rep, err := c.r.ReadReply()
		if err != nil {
			c.err = err
			return 0, false
		}
		if rep.Type != '+' || rep.Str != s {
			c.bad("MULTI block", rep)
		}
	}
	rep, err := c.r.ReadReply()
	if err != nil {
		c.err = err
		return 0, false
	}
	if rep.Type == '-' && strings.HasPrefix(rep.Str, "RETRY") {
		c.retries++
		return 0, true // rolled back wholly: resending is safe
	}
	// *2 [ *2 [ *reads of $value|$-1, +OK ], *shards of :serial ]
	ok := rep.Type == '*' && len(rep.Elems) == 2 &&
		rep.Elems[0].Type == '*' && len(rep.Elems[0].Elems) == 2 &&
		rep.Elems[1].Type == '*' && len(rep.Elems[1].Elems) == c.w.shards && ints(rep.Elems[1].Elems)
	if ok {
		mget, mset := rep.Elems[0].Elems[0], rep.Elems[0].Elems[1]
		ok = mget.Type == '*' && len(mget.Elems) == c.w.reads && mset.Type == '+' && mset.Str == "OK"
		if ok {
			fold := c.fold
			c.fold = 0
			for _, e := range mget.Elems {
				ok = ok && c.value(e)
			}
			// Same two-level fold as applier.txn.
			c.fold = (fold ^ c.fold) * foldPrime
		}
	}
	if !ok {
		c.bad("EXEC", rep)
		return 0, false
	}
	return 1, false
}

// command is a depth-1 control round trip (PING, INFO, CHECKSUM, preload).
func (c *wireClient) command(args ...string) (resp.Reply, error) {
	w := resp.NewWriter(c.nc)
	if err := w.WriteCommand(args...); err != nil {
		return resp.Reply{}, err
	}
	if err := w.Flush(); err != nil {
		return resp.Reply{}, err
	}
	return c.r.ReadReply()
}

// wireSUT is the server child as the window sees it: /proc accounting by
// pid, protocol counters through INFO on a control connection.
type wireSUT struct {
	srv  *serverProc
	ctrl *wireClient
}

func (s wireSUT) proc() (procSample, error) { return s.srv.proc() }

func (s wireSUT) cpu() (time.Duration, error) { return cpuClock(s.srv.cmd.Process.Pid) }

func (s wireSUT) stmStats() (stm.Stats, error) {
	rep, err := s.ctrl.command("INFO")
	if err != nil {
		return stm.Stats{}, err
	}
	return parseInfo(rep.Str)
}

// parseInfo reads the stm_* counters out of an INFO payload.
func parseInfo(text string) (stm.Stats, error) {
	var st stm.Stats
	fields := map[string]*uint64{
		"stm_commits": &st.Commits, "stm_aborts": &st.Aborts, "stm_upgrades": &st.Upgrades,
		"stm_fast_releases": &st.FastReleases, "stm_slow_releases": &st.SlowReleases,
		"stm_conflict_writer": &st.ConflictWriter, "stm_conflict_reader": &st.ConflictReader,
		"stm_conflict_anon": &st.ConflictAnon, "stm_conflict_aborts": &st.ConflictAborts,
		"stm_doomed_aborts": &st.DoomedAborts, "stm_dooms": &st.Dooms,
		"stm_snapshot_commits": &st.SnapshotCommits, "stm_snapshot_retries": &st.SnapshotRetries,
	}
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, ":")
		if p := fields[name]; ok && p != nil {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return st, fmt.Errorf("INFO %s: %w", name, err)
			}
			*p = v
			seen++
		}
	}
	if seen != len(fields) {
		return st, fmt.Errorf("INFO carried %d of %d stm counters", seen, len(fields))
	}
	return st, nil
}

// preloadWire sets keys lo..hi over one connection with 64-key MSETs, eight
// in flight.
func preloadWire(c *wireClient, seed int64, lo, hi uint32) error {
	const perMSET, depth = 64, 8
	w := resp.NewWriter(c.nc)
	args := make([]string, 0, 1+2*perMSET)
	for k := lo; k <= hi; {
		sent := 0
		for ; sent < depth && k <= hi; sent++ {
			args = append(args[:0], "MSET")
			for n := 0; n < perMSET && k <= hi; n, k = n+1, k+1 {
				args = append(args, strconv.FormatUint(uint64(k), 10), strconv.FormatUint(preloadVal(seed, k), 10))
			}
			if err := w.WriteCommand(args...); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for ; sent > 0; sent-- {
			rep, err := c.r.ReadReply()
			if err != nil {
				return err
			}
			if rep.Type != '*' || len(rep.Elems) != 2 {
				return fmt.Errorf("preload MSET: unexpected reply %c %q", rep.Type, rep.Str)
			}
		}
	}
	return nil
}

func runWire(w workload, cfg runCfg) (rep *report) {
	rep = newReport(w, cfg)
	srv, err := startServer(w)
	if err != nil {
		rep.fail("start server: %v", err)
		return rep
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	var tracers []*tracer
	loops := make([]*loop, w.workers)
	clients := make([]*wireClient, w.workers)
	for i := range loops {
		var tr *tracer
		if cfg.trace {
			tr = newTracer(cfg.start)
			tracers = append(tracers, tr)
		}
		c, err := dialClient(w, newStream(w, cfg.seed, i, w.streamReqs), srv.addr, tr)
		if err != nil {
			rep.fail("dial: %v", err)
			return rep
		}
		defer c.nc.Close()
		clients[i] = c
		loops[i] = &loop{c: c, n: c.s.n}
	}
	ctrl, err := dialClient(w, nil, srv.addr, nil)
	if err != nil {
		rep.fail("dial: %v", err)
		return rep
	}
	defer ctrl.nc.Close()
	checksum := func() (uint64, error) {
		r, err := ctrl.command("CHECKSUM")
		if err != nil {
			return 0, err
		}
		if r.Type != '$' || r.Null {
			return 0, fmt.Errorf("CHECKSUM: unexpected reply %c %q", r.Type, r.Str)
		}
		return strconv.ParseUint(r.Str, 10, 64)
	}

	// Verify segment over connection 0, then preload over the wire.
	vc := clients[0]
	vs := newStream(w, cfg.seed, roleVerify, w.verifyReqs)
	ws := vc.s
	vc.s, vc.parse = vs, true
	verifySegment(w, rep, vs, func(i int) { vc.do(i) }, func() uint64 { return vc.fold }, checksum)
	vc.s, vc.parse = ws, false
	if vc.failed != 0 || vc.err != nil {
		rep.fail("verify segment: %d failed ops (%v)", vc.failed, vc.err)
	}

	var wg sync.WaitGroup
	errs := make([]error, w.workers)
	for i := 0; i < w.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := preloadRange(w.keys, w.workers, i)
			errs[i] = preloadWire(clients[i], cfg.seed, lo, hi)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		rep.fail("preload: %v", err)
		return rep
	}

	for _, l := range loops {
		wg.Add(1)
		go func(l *loop) {
			defer wg.Done()
			l.replay(w.warmupReqs)
		}(l)
	}
	wg.Wait()
	rep.SetupS = time.Since(cfg.start).Seconds()

	sut := wireSUT{srv: srv, ctrl: ctrl}
	if cfg.trace {
		tracedWire(w, cfg, rep, loops, clients, tracers, sut)
	} else {
		res, err := runWindow(loops, cfg.window, w, sut)
		if err != nil {
			rep.fail("window: %v", err)
			return rep
		}
		rep.endToEnd(res)
	}
	for _, c := range clients {
		if c.err != nil {
			rep.fail("connection: %v", c.err)
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		rep.fail("%v", err)
	}
	return rep
}
