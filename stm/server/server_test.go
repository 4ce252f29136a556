package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tokentm/stm"
	"tokentm/stm/kvstore"
	"tokentm/stm/resp"
)

// startServer builds a server, serves it on a loopback listener, and
// returns it with its address. Cleanup shuts it down (idempotent, so tests
// that drain explicitly are fine).
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

// client is a test-side RESP client.
type client struct {
	t  *testing.T
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{t: t, nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
}

func (c *client) send(args ...string) {
	c.t.Helper()
	if err := c.w.WriteCommand(args...); err != nil {
		c.t.Fatal(err)
	}
}

func (c *client) flush() {
	c.t.Helper()
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *client) recv() resp.Reply {
	c.t.Helper()
	rep, err := c.r.ReadReply()
	if err != nil {
		c.t.Fatalf("ReadReply: %v", err)
	}
	return rep
}

// cmd sends one command and returns its reply.
func (c *client) cmd(args ...string) resp.Reply {
	c.t.Helper()
	c.send(args...)
	c.flush()
	return c.recv()
}

// getReply unpacks GET's *3 [value|null, shard, serial] reply.
func getReply(t *testing.T, rep resp.Reply) (val uint64, ok bool, shard int, serial uint64) {
	t.Helper()
	if rep.Type != '*' || len(rep.Elems) != 3 {
		t.Fatalf("GET reply = %+v", rep)
	}
	if !rep.Elems[0].Null {
		v, err := strconv.ParseUint(rep.Elems[0].Str, 10, 64)
		if err != nil {
			t.Fatalf("GET value %q: %v", rep.Elems[0].Str, err)
		}
		val, ok = v, true
	}
	return val, ok, int(rep.Elems[1].Int), uint64(rep.Elems[2].Int)
}

// serialsOf unpacks a per-shard serial array.
func serialsOf(t *testing.T, rep resp.Reply) []uint64 {
	t.Helper()
	if rep.Type != '*' {
		t.Fatalf("serials reply = %+v", rep)
	}
	out := make([]uint64, len(rep.Elems))
	for i, e := range rep.Elems {
		if e.Type != ':' {
			t.Fatalf("serials[%d] = %+v", i, e)
		}
		out[i] = uint64(e.Int)
	}
	return out
}

func TestProtocolBasics(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4, MaxConns: 4})
	c := dial(t, addr)

	if rep := c.cmd("PING"); rep.Type != '+' || rep.Str != "PONG" {
		t.Fatalf("PING = %+v", rep)
	}
	// lower-case commands work too
	if rep := c.cmd("ping"); rep.Str != "PONG" {
		t.Fatalf("ping = %+v", rep)
	}

	if _, ok, _, _ := getReply(t, c.cmd("GET", "7")); ok {
		t.Fatal("GET on empty store found a value")
	}
	rep := c.cmd("SET", "7", "42")
	if rep.Type != '*' || len(rep.Elems) != 2 {
		t.Fatalf("SET reply = %+v", rep)
	}
	shard, serial := int(rep.Elems[0].Int), uint64(rep.Elems[1].Int)
	if shard != srv.Store().ShardOf(7) || serial == 0 {
		t.Fatalf("SET shard/serial = %d/%d, want shard %d", shard, serial, srv.Store().ShardOf(7))
	}
	v, ok, gshard, gserial := getReply(t, c.cmd("GET", "7"))
	if !ok || v != 42 || gshard != shard || gserial < serial {
		t.Fatalf("GET 7 = (%d,%v,%d,%d)", v, ok, gshard, gserial)
	}

	// MSET then MGET across shards; serial arrays are NumShards wide.
	rep = c.cmd("MSET", "1", "10", "2", "20", "3", "30")
	if rep.Type != '*' || len(rep.Elems) != 2 || rep.Elems[0].Int != 3 {
		t.Fatalf("MSET reply = %+v", rep)
	}
	if got := len(serialsOf(t, rep.Elems[1])); got != 4 {
		t.Fatalf("MSET serials width = %d, want 4", got)
	}
	rep = c.cmd("MGET", "1", "2", "3", "99")
	if rep.Type != '*' || len(rep.Elems) != 2 {
		t.Fatalf("MGET reply = %+v", rep)
	}
	vals := rep.Elems[0]
	if len(vals.Elems) != 4 || vals.Elems[0].Str != "10" || vals.Elems[1].Str != "20" ||
		vals.Elems[2].Str != "30" || !vals.Elems[3].Null {
		t.Fatalf("MGET values = %+v", vals)
	}

	// Client mistakes answer -ERR and keep the connection alive.
	for _, bad := range [][]string{
		{"GET"}, {"GET", "1", "2"}, {"SET", "1"}, {"MSET", "1"},
		{"GET", "0"}, {"GET", "x"}, {"SET", "1", "-3"}, {"NOSUCH"},
		{"EXEC"}, {"DISCARD"},
	} {
		if rep := c.cmd(bad...); rep.Type != '-' {
			t.Fatalf("%v reply = %+v, want -ERR", bad, rep)
		}
	}
	if rep := c.cmd("PING"); rep.Str != "PONG" {
		t.Fatalf("connection dead after -ERR replies: %+v", rep)
	}

	want := strconv.FormatUint(kvstore.Checksum(srv.Store()), 10)
	if rep := c.cmd("CHECKSUM"); rep.Type != '$' || rep.Str != want {
		t.Fatalf("CHECKSUM = %+v, want %s", rep, want)
	}
}

func TestMultiExec(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2, MaxConns: 4})
	c := dial(t, addr)

	// Two keys on different shards.
	a, b := uint64(1), uint64(2)
	for srv.Store().ShardOf(b) == srv.Store().ShardOf(a) {
		b++
	}
	as, bs := strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)

	if rep := c.cmd("MULTI"); rep.Str != "OK" {
		t.Fatalf("MULTI = %+v", rep)
	}
	if rep := c.cmd("MULTI"); rep.Type != '-' {
		t.Fatalf("nested MULTI = %+v", rep)
	}
	for _, cmd := range [][]string{
		{"SET", as, "100"}, {"SET", bs, "200"}, {"MGET", as, bs}, {"GET", as},
	} {
		if rep := c.cmd(cmd...); rep.Str != "QUEUED" {
			t.Fatalf("%v = %+v", cmd, rep)
		}
	}
	rep := c.cmd("EXEC")
	if rep.Type != '*' || len(rep.Elems) != 2 {
		t.Fatalf("EXEC = %+v", rep)
	}
	results := rep.Elems[0]
	if len(results.Elems) != 4 {
		t.Fatalf("EXEC results = %+v", results)
	}
	if results.Elems[0].Str != "OK" || results.Elems[1].Str != "OK" {
		t.Fatalf("queued SET results = %+v", results)
	}
	mget := results.Elems[2]
	if mget.Elems[0].Str != "100" || mget.Elems[1].Str != "200" {
		t.Fatalf("queued MGET inside txn = %+v (read-your-writes)", mget)
	}
	if results.Elems[3].Str != "100" {
		t.Fatalf("queued GET = %+v", results.Elems[3])
	}
	serials := serialsOf(t, rep.Elems[1])
	var touched int
	for _, s := range serials {
		if s != 0 {
			touched++
		}
		if s != 0 && s != srv.Store().SerialClock() {
			t.Fatalf("EXEC serials %v: a touched shard's entry is not the commit serial %d", serials, srv.Store().SerialClock())
		}
	}
	if touched != 2 {
		t.Fatalf("cross-shard EXEC touched %d shards (serials %v), want 2", touched, serials)
	}

	// DISCARD drops the queue.
	c.cmd("MULTI")
	c.cmd("SET", as, "999")
	if rep := c.cmd("DISCARD"); rep.Str != "OK" {
		t.Fatalf("DISCARD = %+v", rep)
	}
	if v, _, _, _ := getReply(t, c.cmd("GET", as)); v != 100 {
		t.Fatalf("DISCARDed SET applied: %d", v)
	}

	// A bad queued command poisons the transaction: EXEC refuses and
	// nothing commits.
	c.cmd("MULTI")
	if rep := c.cmd("SET", as, "777"); rep.Str != "QUEUED" {
		t.Fatalf("queued SET = %+v", rep)
	}
	if rep := c.cmd("SET", "0", "1"); rep.Type != '-' {
		t.Fatalf("bad queued SET = %+v", rep)
	}
	if rep := c.cmd("EXEC"); rep.Type != '-' || !strings.HasPrefix(rep.Str, "EXECABORT") {
		t.Fatalf("EXEC after poison = %+v", rep)
	}
	if v, _, _, _ := getReply(t, c.cmd("GET", as)); v != 100 {
		t.Fatalf("poisoned EXEC applied a write: %d", v)
	}
}

// TestRetrySurfacedAndRolledBack parks a conflicting writer in-process so
// the client's EXEC exhausts the contention bound: the client must see
// -RETRY, the store must show no partial effects, and the connection must
// remain usable (the satellite's abort→-RETRY surface).
func TestRetrySurfacedAndRolledBack(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:   2,
		MaxConns: 2,
		Options:  stm.Options{MaxAttempts: 3},
	})
	c := dial(t, addr)

	a, b := uint64(1), uint64(2)
	for srv.Store().ShardOf(b) == srv.Store().ShardOf(a) {
		b++
	}
	as, bs := strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)
	c.cmd("MSET", as, "1", bs, "1")

	// Park a writer holding b's tokens from a spare in-process worker slot
	// (the two client slots are 0 and 1; the store was built with
	// MaxConns=2 workers, so reuse slot 1 — this test only dials once).
	// The EXEC's first conflict with it draws a birth ticket and dooms the
	// ticketless holder, which finds out at its commit and runs fn again.
	hold := make(chan struct{})
	parked := make(chan struct{})
	var parkOnce sync.Once
	done := make(chan error, 1)
	go func() {
		h := srv.Store().Handle(1)
		_, err := h.Txn(false, func(tx kvstore.Tx) error {
			tx.Put(b, 99)
			parkOnce.Do(func() { close(parked) })
			<-hold
			return nil
		})
		done <- err
	}()
	<-parked

	c.send("MULTI")
	c.send("SET", as, "50")
	c.send("SET", bs, "60")
	c.send("EXEC")
	c.flush()
	for i := 0; i < 3; i++ {
		c.recv() // +OK, +QUEUED, +QUEUED
	}
	rep := c.recv()
	if rep.Type != '-' || !strings.HasPrefix(rep.Str, "RETRY") {
		t.Fatalf("EXEC against parked writer = %+v, want -RETRY", rep)
	}
	// Rolled back on BOTH shards: a untouched even though its shard was
	// conflict-free.
	if v, _, _, _ := getReply(t, c.cmd("GET", as)); v != 1 {
		t.Fatalf("aborted EXEC leaked a=%d, want 1", v)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("parked txn: %v", err)
	}
	// The connection retries and succeeds once the conflict clears.
	c.send("MULTI")
	c.send("SET", as, "50")
	c.send("SET", bs, "60")
	c.send("EXEC")
	c.flush()
	for i := 0; i < 3; i++ {
		c.recv()
	}
	if rep := c.recv(); rep.Type != '*' {
		t.Fatalf("EXEC after conflict cleared = %+v", rep)
	}
	if v, _, _, _ := getReply(t, c.cmd("GET", bs)); v != 60 {
		t.Fatalf("b = %d after successful retry, want 60", v)
	}
}

func TestPipelining(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, MaxConns: 2})
	c := dial(t, addr)

	// One write burst, one read burst: the server must answer every command
	// in order without per-command flushing from the client.
	const n = 50
	for i := 1; i <= n; i++ {
		c.send("SET", strconv.Itoa(i), strconv.Itoa(i*i))
	}
	for i := 1; i <= n; i++ {
		c.send("GET", strconv.Itoa(i))
	}
	c.flush()
	for i := 1; i <= n; i++ {
		if rep := c.recv(); rep.Type != '*' || len(rep.Elems) != 2 {
			t.Fatalf("pipelined SET %d = %+v", i, rep)
		}
	}
	for i := 1; i <= n; i++ {
		v, ok, _, _ := getReply(t, c.recv())
		if !ok || v != uint64(i*i) {
			t.Fatalf("pipelined GET %d = (%d,%v), want %d", i, v, ok, i*i)
		}
	}
}

func TestInfoDeterministic(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2, MaxConns: 2})
	c := dial(t, addr)
	if serials := serialsOf(t, c.cmd("MSET", "1", "1", "2", "2", "3", "3").Elems[1]); slices.Contains(serials, 0) {
		t.Fatalf("MSET serials %v: want both shards touched", serials)
	}

	a := c.cmd("INFO")
	b := c.cmd("INFO")
	if a.Type != '$' || a.Str != b.Str {
		t.Fatalf("INFO not deterministic on a quiescent store:\n%s\nvs\n%s", a.Str, b.Str)
	}
	fields := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(a.Str), "\n") {
		name, num, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("INFO line %q", line)
		}
		v, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			t.Fatalf("INFO line %q: %v", line, err)
		}
		fields[name] = v
	}
	if fields["shards"] != 2 {
		t.Fatalf("INFO shards = %d", fields["shards"])
	}
	st := srv.Store().Stats()
	if fields["commits"] != st.Commits || fields["aborts"] != st.Aborts {
		t.Fatalf("INFO commits/aborts = %d/%d, store says %d/%d",
			fields["commits"], fields["aborts"], st.Commits, st.Aborts)
	}
	// The cross-shard MSET is one commit of one TM, counted once.
	if fields["commits"] != 1 || fields["stm_commits"] != fields["commits"] {
		t.Fatalf("INFO commits = %d, stm_commits = %d after one MSET, want 1 and 1",
			fields["commits"], fields["stm_commits"])
	}
	for i := 0; i < 2; i++ {
		name := "shard" + strconv.Itoa(i) + "_serial"
		if fields[name] != srv.Store().SerialClock() {
			t.Fatalf("INFO %s = %d, the store's clock is %d", name, fields[name], srv.Store().SerialClock())
		}
	}
	if _, ok := fields["stm_fast_releases"]; !ok {
		t.Fatal("INFO lacks stm_fast_releases")
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(a.Str), "\n") {
		name, _, _ := strings.Cut(line, ":")
		keys = append(keys, name)
	}
	want := []string{"shards", "commits", "aborts"}
	stm.Stats{}.Each(func(name string, _ uint64) { want = append(want, "stm_"+name) })
	want = append(want, "shard0_serial", "shard1_serial")
	if !slices.Equal(keys, want) {
		t.Fatalf("INFO keys = %v, want %v", keys, want)
	}
}

func TestMaxConnsRefusal(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, MaxConns: 1})
	c1 := dial(t, addr)
	if rep := c1.cmd("PING"); rep.Str != "PONG" {
		t.Fatalf("first conn PING = %+v", rep)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	line, err := io.ReadAll(nc) // server writes the refusal and closes
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(line, []byte("-ERR max connections")) {
		t.Fatalf("refusal line = %q", line)
	}
	// The slot frees on disconnect.
	c1.nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		nc3, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c3 := &client{t: t, nc: nc3, r: resp.NewReader(nc3), w: resp.NewWriter(nc3)}
		c3.send("PING")
		c3.flush()
		if rep, err := c3.r.ReadReply(); err == nil && rep.Str == "PONG" {
			nc3.Close()
			return
		}
		nc3.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerSlotCostIsConstant: New binds every connection slot's handle up
// front, so a slot must cost O(1), not a table per block. The store's 64k
// slots hold 1.5 MB of data and token words; New may grow the heap by that
// plus 2 MB. A per-block table per connection slot would be
// 64 × 64k × 8 B = 32 MB.
func TestServerSlotCostIsConstant(t *testing.T) {
	const capacity = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(Config{Shards: 4, Capacity: capacity, MaxConns: 64})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	const data = capacity * (2 + 1) * 8 // two data words and one token word per slot
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= data+2<<20 {
		t.Fatalf("New grew the heap by %.1f MB, want under %.1f MB (data arrays plus 2 MB)", float64(grew)/(1<<20), float64(data+2<<20)/(1<<20))
	}
}

// TestShutdownBeforeServe: a Shutdown that wins the race against the Serve
// goroutine finds no listener to close, so Serve itself must notice the
// drain and return instead of blocking in Accept on a server nobody will
// stop again.
func TestShutdownBeforeServe(t *testing.T) {
	s, err := New(Config{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve blocked in Accept after Shutdown")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still open after Serve returned")
	}
}

// TestGracefulDrain races Shutdown against a pipelined cross-shard
// MULTI…EXEC, over many rounds with varied timing: whatever the
// interleaving, the transaction must be all-or-nothing — both keys updated
// or neither — and the serve loop must never leave a torn prefix. This is
// the acceptance criterion's drain test.
func TestGracefulDrain(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		s, err := New(Config{Shards: 2, MaxConns: 2, DrainTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Serve(ln) }()

		a, b := uint64(1), uint64(2)
		for s.Store().ShardOf(b) == s.Store().ShardOf(a) {
			b++
		}
		as, bs := strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)

		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := &client{t: t, nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
		c.cmd("MSET", as, "1", bs, "1")

		// Fire the whole MULTI block in one write, with Shutdown racing it.
		c.send("MULTI")
		c.send("SET", as, "7")
		c.send("SET", bs, "7")
		c.send("EXEC")
		c.flush()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Vary the race window across rounds, including zero delay.
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
			s.Shutdown()
		}()

		sawExec, sawRetry := false, false
		for i := 0; i < 4; i++ {
			rep, err := c.r.ReadReply()
			if err != nil {
				break // connection drained before the reply; fine
			}
			if i == 3 {
				switch {
				case rep.Type == '*':
					sawExec = true
				case rep.Type == '-' && strings.HasPrefix(rep.Str, "RETRY"):
					sawRetry = true
				default:
					t.Fatalf("round %d: EXEC reply = %+v", round, rep)
				}
			}
		}
		wg.Wait()
		nc.Close()
		if err := <-done; err != nil {
			t.Fatalf("round %d: Serve: %v", round, err)
		}

		// Quiescent now: the transaction is all-or-nothing.
		state := map[uint64]uint64{}
		s.Store().ForEach(func(k, v uint64) { state[k] = v })
		if state[a] != state[b] {
			t.Fatalf("round %d: torn MULTI after drain: a=%d b=%d (sawExec=%v sawRetry=%v)",
				round, state[a], state[b], sawExec, sawRetry)
		}
		if sawExec && state[a] != 7 {
			t.Fatalf("round %d: EXEC acked but state a=%d", round, state[a])
		}
		if sawRetry && state[a] != 1 {
			t.Fatalf("round %d: RETRY acked but state a=%d", round, state[a])
		}
	}
}

// TestShutdownCommand drains via the wire.
func TestShutdownCommand(t *testing.T) {
	s, err := New(Config{Shards: 1, MaxConns: 2, DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &client{t: t, nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
	if rep := c.cmd("SHUTDOWN"); rep.Str != "OK" {
		t.Fatalf("SHUTDOWN = %+v", rep)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after SHUTDOWN: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain after SHUTDOWN")
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after SHUTDOWN")
	}
}

// TestOverTheWireStress: concurrent clients over real sockets, every reply's
// serial journaled client-side, then one journal merged across clients and
// shards replayed through the kvstore serializability oracle and the drained
// store compared against the replay. Run with -race.
func TestOverTheWireStress(t *testing.T) {
	const (
		workers  = 6
		shards   = 4
		keyspace = 128
	)
	txns := 400
	if testing.Short() {
		txns = 80
	}
	srv, addr := startServer(t, Config{Shards: shards, MaxConns: workers})
	store := srv.Store()

	journals := make([][]kvstore.JournalTxn, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stressClient(t, addr, store, w, txns, keyspace, &journals[w]); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	srv.Shutdown() // quiesce before ForEach; Cleanup's Shutdown is a no-op after this

	ref, err := kvstore.ReplayJournals(journals)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint64{}
	store.ForEach(func(k, v uint64) { got[k] = v })
	if len(got) != len(ref) {
		t.Fatalf("final state has %d keys, journal replay has %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("final state key %d = %d, replay has %d", k, got[k], v)
		}
	}
	t.Logf("over-the-wire: %d clients x %d txns, %d keys, stats %+v",
		workers, txns, len(got), store.Stats())
}

// stressClient drives one connection's seeded mix, journaling every reply
// under its serial. An EXEC's serial vector must carry one serial, in the
// slots of exactly the shards of its two keys.
func stressClient(t *testing.T, addr string, store *kvstore.Sharded, worker, txns int, keyspace uint64, journal *[]kvstore.JournalTxn) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	r, w := resp.NewReader(nc), resp.NewWriter(nc)
	cmd := func(args ...string) (resp.Reply, error) {
		if err := w.WriteCommand(args...); err != nil {
			return resp.Reply{}, err
		}
		if err := w.Flush(); err != nil {
			return resp.Reply{}, err
		}
		return r.ReadReply()
	}
	rng := uint64(worker)*0x9e3779b97f4a7c15 + 4242
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	key := func() uint64 {
		if next()%4 == 0 {
			return 1 + next()%8 // hot set
		}
		return 1 + next()%keyspace
	}
	ks := func(k uint64) string { return strconv.FormatUint(k, 10) }

	for i := 0; i < txns; i++ {
		switch op := next() % 100; {
		case op < 30: // point read
			k := key()
			rep, err := cmd("GET", ks(k))
			if err != nil {
				return err
			}
			val, ok := uint64(0), false
			if !rep.Elems[0].Null {
				val, _ = strconv.ParseUint(rep.Elems[0].Str, 10, 64)
				ok = true
			}
			*journal = append(*journal, kvstore.JournalTxn{
				Serial: uint64(rep.Elems[2].Int),
				Reads:  []kvstore.JournalOp{{Key: k, Val: val, OK: ok}},
			})
		case op < 55: // point write
			k, v := key(), next()
			rep, err := cmd("SET", ks(k), ks(v))
			if err != nil {
				return err
			}
			*journal = append(*journal, kvstore.JournalTxn{
				Serial: uint64(rep.Elems[1].Int), Writer: true,
				Writes: []kvstore.JournalOp{{Key: k, Val: v, OK: true}},
			})
		default: // cross-shard MULTI: read two keys, blind-write both
			a, b := key(), key()
			if a == b {
				continue
			}
			va, vb := next(), next()
			for _, send := range [][]string{
				{"MULTI"}, {"MGET", ks(a), ks(b)}, {"MSET", ks(a), ks(va), ks(b), ks(vb)}, {"EXEC"},
			} {
				if err := w.WriteCommand(send...); err != nil {
					return err
				}
			}
			if err := w.Flush(); err != nil {
				return err
			}
			var rep resp.Reply
			for j := 0; j < 4; j++ {
				if rep, err = r.ReadReply(); err != nil {
					return err
				}
			}
			if rep.Type != '*' {
				return errors.New("EXEC reply " + rep.Str)
			}
			results, serials := rep.Elems[0], serialsOf(t, rep.Elems[1])
			serial := slices.Max(serials)
			for shard, s := range serials {
				touched := shard == store.ShardOf(a) || shard == store.ShardOf(b)
				if serial == 0 || touched && s != serial || !touched && s != 0 {
					return fmt.Errorf("EXEC on keys %d, %d (shards %d, %d): serial vector %v",
						a, b, store.ShardOf(a), store.ShardOf(b), serials)
				}
			}
			mget := results.Elems[0]
			*journal = append(*journal, kvstore.JournalTxn{
				Serial: serial, Writer: true,
				Reads: []kvstore.JournalOp{
					journalRead(a, mget.Elems[0]),
					journalRead(b, mget.Elems[1]),
				},
				Writes: []kvstore.JournalOp{
					{Key: a, Val: va, OK: true},
					{Key: b, Val: vb, OK: true},
				},
			})
		}
	}
	return nil
}

func journalRead(key uint64, e resp.Reply) kvstore.JournalOp {
	if e.Null {
		return kvstore.JournalOp{Key: key}
	}
	v, _ := strconv.ParseUint(e.Str, 10, 64)
	return kvstore.JournalOp{Key: key, Val: v, OK: true}
}
