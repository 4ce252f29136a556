package server

// Hostile clients that reach the codec and the reply flush: garbage behind a
// valid pipelined prefix, a reply larger than the writer's bound, a client
// that sends without ever reading its replies, one that trickles a command
// it never finishes, one that hangs up inside MULTI, one that queues
// without end inside MULTI, one that half-closes behind a pipelined batch,
// and one that fills the store's table.

import (
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"tokentm/stm/resp"
)

// TestHostileGarbageAfterPrefix: the valid commands ahead of a malformed
// frame in one pipelined write are answered, then the server reports the
// protocol error and hangs up.
func TestHostileGarbageAfterPrefix(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, MaxConns: 2})
	c := dial(t, addr)
	if _, err := c.nc.Write([]byte("SET 5 55\r\n*2\r\n$3\r\nGET\r\n$1\r\n5\r\n*1\r\n$x\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	if rep := c.recv(); rep.Type != '*' || len(rep.Elems) != 2 {
		t.Fatalf("SET reply = %+v", rep)
	}
	if v, ok, _, _ := getReply(t, c.recv()); !ok || v != 55 {
		t.Fatalf("GET = (%d,%v), want 55", v, ok)
	}
	if rep := c.recv(); rep.Type != '-' || !strings.HasPrefix(rep.Str, "ERR protocol") {
		t.Fatalf("reply to garbage = %+v, want -ERR protocol", rep)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := c.r.ReadReply(); err != io.EOF {
		t.Fatalf("after the protocol error: %+v, %v; want the connection closed", rep, err)
	}
}

// TestHostileLargeMGETReply: an MGET of as many keys as a command may carry
// has a reply several times the writer's bound, written through in pieces;
// it arrives whole and in order.
func TestHostileLargeMGETReply(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4, MaxConns: 2})
	h := srv.Store().Handle(1)
	args := []string{"MGET"}
	for k := uint64(1); k < resp.MaxArgs; k++ {
		h.Put(k, ^uint64(0)-k)
		args = append(args, strconv.FormatUint(k, 10))
	}
	c := dial(t, addr)
	rep := c.cmd(args...)
	if rep.Type != '*' || len(rep.Elems) != 2 || len(rep.Elems[0].Elems) != resp.MaxArgs-1 {
		t.Fatalf("MGET reply shape = %c with %d elems", rep.Type, len(rep.Elems))
	}
	for i, e := range rep.Elems[0].Elems {
		if want := strconv.FormatUint(^uint64(0)-uint64(i+1), 10); e.Str != want {
			t.Fatalf("MGET value %d = %+v, want %s", i, e, want)
		}
	}
	if rep := c.cmd("PING"); rep.Str != "PONG" {
		t.Fatalf("PING after MGET = %+v", rep)
	}
}

// TestHostileNonReaderReleasesSlot: a client that pipelines GETs and never
// reads a reply fills the socket buffers until the server's write blocks.
// With ReadTimeout set, that write times out and frees the only slot, so a
// second client gets in.
func TestHostileNonReaderReleasesSlot(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, MaxConns: 1, ReadTimeout: 200 * time.Millisecond})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetReadBuffer(4096)
	flooded := make(chan error, 1)
	go func() {
		batch := []byte(strings.Repeat("GET 1\r\n", 1024))
		for {
			if _, err := nc.Write(batch); err != nil {
				flooded <- err
				return
			}
		}
	}()

	waitForSlot(t, addr).nc.Close()
	select {
	case <-flooded:
	case <-time.After(5 * time.Second):
		t.Fatal("flooding client never saw its connection closed")
	}
}

// TestHostileSlowLoris: a client that trickles one command a byte every
// quarter ReadTimeout and never finishes it is dropped once ReadTimeout has
// passed since the command began. ReadTimeout bounds the whole command, not
// each read, so the trickle cannot hold the only slot.
func TestHostileSlowLoris(t *testing.T) {
	const timeout = 100 * time.Millisecond
	_, addr := startServer(t, Config{Shards: 1, MaxConns: 1, ReadTimeout: timeout})
	c := dial(t, addr)
	start := time.Now()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(timeout / 4)
		defer tick.Stop()
		const prefix = "SET 7 " // then a value that never ends
		for i := 0; ; i++ {
			b := byte('7')
			if i < len(prefix) {
				b = prefix[i]
			}
			if _, err := c.nc.Write([]byte{b}); err != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	c.nc.SetReadDeadline(start.Add(2 * timeout))
	buf := make([]byte, 64)
	n, err := c.nc.Read(buf)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v into a command that never completes, want it dropped within %v", time.Since(start), 2*timeout)
	}
	if err == nil {
		t.Fatalf("got %q for an incomplete command, want the connection dropped", buf[:n])
	}
	waitForSlot(t, addr).nc.Close()
}

// waitForSlot dials until a connection is served rather than refused and
// returns it, failing the test if no slot frees within ten seconds.
func waitForSlot(t *testing.T, addr string) *client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := dial(t, addr)
		c.nc.SetReadDeadline(time.Now().Add(time.Second))
		c.w.WriteCommand("PING")
		c.w.Flush() // a refused connection may already be closed: the read says which
		rep, err := c.r.ReadReply()
		if err == nil && rep.Str == "PONG" {
			c.nc.SetReadDeadline(time.Time{})
			return c
		}
		c.nc.Close()
		if err == nil && !strings.HasPrefix(rep.Str, "ERR max connections") {
			t.Fatalf("waiting for a slot, got %+v", rep)
		}
		if time.Now().After(deadline) {
			t.Fatal("the only connection slot was never freed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHostileDisconnectMidMulti: a client that queues a SET inside MULTI
// and hangs up before EXEC frees its slot, and the queued SET never runs.
func TestHostileDisconnectMidMulti(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, MaxConns: 1})
	c := dial(t, addr)
	c.send("MULTI")
	c.send("SET", "9", "90")
	c.flush()
	if rep := c.recv(); rep.Str != "OK" {
		t.Fatalf("MULTI = %+v", rep)
	}
	if rep := c.recv(); rep.Str != "QUEUED" {
		t.Fatalf("queued SET = %+v", rep)
	}
	c.nc.Close()

	next := waitForSlot(t, addr)
	if v, ok, _, _ := getReply(t, next.cmd("GET", "9")); ok {
		t.Fatalf("GET 9 = %d after its MULTI was abandoned, want absent", v)
	}
}

// TestHostileUnboundedMulti: a client that queues more than maxQueuedKeys
// keys inside one MULTI gets -ERR for the command that crosses the bound,
// its EXEC answers EXECABORT and runs nothing, and the same connection then
// serves a normal MULTI…EXEC.
func TestHostileUnboundedMulti(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, MaxConns: 1})
	c := dial(t, addr)
	mset := []string{"MSET"}
	for k := 1; len(mset)+2 <= resp.MaxArgs; k++ {
		mset = append(mset, strconv.Itoa(k), "7")
	}
	fits := maxQueuedKeys / (len(mset) / 2) // MSETs that fit under the bound
	c.send("MULTI")
	for i := 0; i <= fits; i++ {
		c.send(mset...)
	}
	c.send("EXEC")
	c.flush()
	if rep := c.recv(); rep.Str != "OK" {
		t.Fatalf("MULTI = %+v", rep)
	}
	for i := 0; i < fits; i++ {
		if rep := c.recv(); rep.Str != "QUEUED" {
			t.Fatalf("MSET %d = %+v, want QUEUED", i, rep)
		}
	}
	if rep := c.recv(); rep.Type != '-' || rep.Str != "ERR MULTI queue full" {
		t.Fatalf("MSET past the bound = %+v, want -ERR MULTI queue full", rep)
	}
	if rep := c.recv(); rep.Type != '-' || !strings.HasPrefix(rep.Str, "EXECABORT") {
		t.Fatalf("EXEC past the bound = %+v, want EXECABORT", rep)
	}
	if v, ok, _, _ := getReply(t, c.cmd("GET", "1")); ok {
		t.Fatalf("GET 1 = %d after the refused MULTI, want absent", v)
	}

	c.send("MULTI")
	c.send("SET", "1", "10")
	c.send("GET", "1")
	c.send("EXEC")
	c.flush()
	for _, want := range []string{"OK", "QUEUED", "QUEUED"} {
		if rep := c.recv(); rep.Str != want {
			t.Fatalf("reply = %+v, want %s", rep, want)
		}
	}
	rep := c.recv()
	if rep.Type != '*' || len(rep.Elems) != 2 || len(rep.Elems[0].Elems) != 2 ||
		rep.Elems[0].Elems[0].Str != "OK" || rep.Elems[0].Elems[1].Str != "10" {
		t.Fatalf("EXEC after the refused MULTI = %+v", rep)
	}
}

// TestHostileHalfClose: a client that pipelines a batch and shuts its write
// side gets every reply, then EOF.
func TestHostileHalfClose(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, MaxConns: 2})
	c := dial(t, addr)
	const n = 64
	for i := 1; i <= n; i++ {
		c.send("SET", strconv.Itoa(i), strconv.Itoa(7*i))
		c.send("GET", strconv.Itoa(i))
	}
	c.flush()
	if err := c.nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 1; i <= n; i++ {
		if rep := c.recv(); rep.Type != '*' || len(rep.Elems) != 2 {
			t.Fatalf("SET %d = %+v", i, rep)
		}
		if v, ok, _, _ := getReply(t, c.recv()); !ok || v != uint64(7*i) {
			t.Fatalf("GET %d = (%d,%v), want %d", i, v, ok, 7*i)
		}
	}
	if rep, err := c.r.ReadReply(); err != io.EOF {
		t.Fatalf("after the last reply: %+v, %v; want EOF", rep, err)
	}
}

// TestHostileLateCommandKeepsWriteBudget: a client idle for most of
// ReadTimeout sends an MGET, then pauses for less than ReadTimeout before
// reading the reply. Each write gets its own ReadTimeout rather than what
// the read wait left over, so the reply arrives whole. net.Pipe has no
// buffering, so every write waits for the client to read.
func TestHostileLateCommandKeepsWriteBudget(t *testing.T) {
	const timeout = 500 * time.Millisecond
	s, err := New(Config{Shards: 4, MaxConns: 1, ReadTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Store().Handle(0)
	mget := []string{"MGET"}
	for k := uint64(1); k < resp.MaxArgs; k++ {
		h.Put(k, ^uint64(0)-k)
		mget = append(mget, strconv.FormatUint(k, 10))
	}
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	done := make(chan struct{})
	go func() {
		newConn(s, srvEnd, srvEnd, 0).serve()
		srvEnd.Close()
		close(done)
	}()

	time.Sleep(timeout * 4 / 5)
	sent := make(chan error, 1)
	go func() {
		w := resp.NewWriter(cliEnd)
		w.WriteCommand(mget...)
		sent <- w.Flush()
	}()
	time.Sleep(timeout * 3 / 5)
	cliEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
	rep, err := resp.NewReader(cliEnd).ReadReply()
	if err != nil {
		t.Fatalf("MGET: %v; the server dropped a client reading within ReadTimeout", err)
	}
	if rep.Type != '*' || len(rep.Elems) != 2 || len(rep.Elems[0].Elems) != resp.MaxArgs-1 {
		t.Fatalf("MGET reply shape = %c with %d elems", rep.Type, len(rep.Elems))
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	cliEnd.Close()
	<-done
}

// fillTable SETs keys 1..5 into a four-slot table in one pipelined batch.
// The fifth finds no free slot and its handler panics: c gets the four
// replies ahead of it, one -ERR naming the panic, then EOF.
func fillTable(t *testing.T, c *client) {
	t.Helper()
	for k := 1; k <= 5; k++ {
		c.send("SET", strconv.Itoa(k), strconv.Itoa(10*k))
	}
	c.flush()
	for k := 1; k <= 4; k++ {
		if rep := c.recv(); rep.Type != '*' || len(rep.Elems) != 2 {
			t.Fatalf("SET %d = %+v", k, rep)
		}
	}
	wantPanicReply(t, c)
}

// wantPanicReply reads the -ERR of a recovered handler panic and then EOF.
func wantPanicReply(t *testing.T, c *client) {
	t.Helper()
	if rep := c.recv(); rep.Type != '-' || !strings.Contains(rep.Str, "table full") {
		t.Fatalf("reply = %+v, want -ERR naming the table-full panic", rep)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := c.r.ReadReply(); err != io.EOF {
		t.Fatalf("after the -ERR: %+v, %v; want the connection closed", rep, err)
	}
}

// TestHostileTableFull: a client that fills the store's table makes a
// handler panic. The server closes that connection only: the other one still
// answers, the stored keys keep their values, a MULTI whose queued SET
// overflows rolls back its other queued SET, and the slot comes back.
func TestHostileTableFull(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, Capacity: 4, MaxConns: 2})
	filler, other := dial(t, addr), dial(t, addr)
	if rep := other.cmd("PING"); rep.Str != "PONG" {
		t.Fatalf("PING = %+v", rep)
	}
	fillTable(t, filler)
	if rep := other.cmd("PING"); rep.Str != "PONG" {
		t.Fatalf("PING after another connection's panic = %+v", rep)
	}
	for k := 1; k <= 4; k++ {
		if v, ok, _, _ := getReply(t, other.cmd("GET", strconv.Itoa(k))); !ok || v != uint64(10*k) {
			t.Fatalf("GET %d = (%d,%v), want %d", k, v, ok, 10*k)
		}
	}

	other.send("MULTI")
	other.send("SET", "1", "100")
	other.send("SET", "6", "60")
	other.send("EXEC")
	other.flush()
	for _, want := range []string{"OK", "QUEUED", "QUEUED"} {
		if rep := other.recv(); rep.Str != want {
			t.Fatalf("reply = %+v, want %s", rep, want)
		}
	}
	wantPanicReply(t, other)
	if v, ok, _, _ := getReply(t, waitForSlot(t, addr).cmd("GET", "1")); !ok || v != 10 {
		t.Fatalf("GET 1 = (%d,%v) after the overflowing EXEC, want 10 (rolled back)", v, ok)
	}

	_, addr = startServer(t, Config{Shards: 1, Capacity: 4, MaxConns: 1})
	fillTable(t, dial(t, addr))
	if v, ok, _, _ := getReply(t, waitForSlot(t, addr).cmd("GET", "4")); !ok || v != 40 {
		t.Fatalf("GET 4 = (%d,%v) on the freed slot, want 40", v, ok)
	}
}

// floodReader is an endless stream of one command that fills every read,
// so with a 7-byte frame no read ever ends on a frame boundary and the
// reader never reports an empty buffer.
type floodReader struct {
	frame string
	pos   int
}

func (f *floodReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = f.frame[f.pos]
		f.pos = (f.pos + 1) % len(f.frame)
	}
	return len(p), nil
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("peer stopped reading") }

// TestHostileWriteFailureEndsConn: once a written-through reply fails, the
// connection ends even though the pipelined batch never drains, so it
// never reaches the flush at the batch's end.
func TestHostileWriteFailureEndsConn(t *testing.T) {
	s, err := New(Config{Shards: 1, Capacity: 1 << 10, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(s, struct {
		io.Reader
		io.Writer
	}{&floodReader{frame: "GET 1\r\n"}, failWriter{}}, nil, 0)
	done := make(chan struct{})
	go func() {
		c.serve()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection kept serving after its replies could not be written")
	}
}
