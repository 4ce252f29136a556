package server

// Steady-state service allocates zero per operation after warm-up.
// TestAllocFreeAnnotations drives the connection's helpers one by one, the
// refusal arms included; TestServiceAllocFree drives the real
// decode→dispatch→store→encode path end to end (minus the socket) and
// measures zero allocations per served command, MSET/MGET and MULTI…EXEC
// included.

import (
	"io"
	"testing"
)

// loopReader hands out the same byte stream forever.
type loopReader struct {
	frame []byte
	pos   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.pos == len(l.frame) {
		l.pos = 0
	}
	n := copy(p, l.frame[l.pos:])
	l.pos += n
	return n, nil
}

type readDiscard struct {
	io.Reader
	io.Writer
}

// testConn builds a codec-only connection (no socket) over an endless
// command stream, bound to worker slot 0 of a fresh store.
func testConn(t *testing.T, frame string) *conn {
	t.Helper()
	s, err := New(Config{Shards: 4, Capacity: 1 << 10, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	return newConn(s, readDiscard{&loopReader{frame: []byte(frame)}, io.Discard}, nil, 0)
}

func TestAllocFreeAnnotations(t *testing.T) {
	c := testConn(t, "PING\r\n")
	serials := []uint64{1, 0, 2, 0}
	mset := [][]byte{[]byte("MSET"), []byte("5"), []byte("50"), []byte("6"), []byte("60")}
	// Refused commands: each leaves the queue as it found it.
	refused := []struct {
		op   byte
		args [][]byte
		want fault
	}{
		{'g', [][]byte{[]byte("GET")}, badArity},
		{'g', [][]byte{[]byte("GET"), []byte("1"), []byte("2")}, badArity},
		{'s', [][]byte{[]byte("SET"), []byte("1")}, badArity},
		{'M', [][]byte{[]byte("MSET"), []byte("1"), []byte("2"), []byte("3")}, badArity},
		{'g', [][]byte{[]byte("GET"), []byte("0")}, badKey},
		{'m', [][]byte{[]byte("MGET"), []byte("1"), []byte("x")}, badKey},
		{'M', [][]byte{[]byte("MSET"), []byte("1"), []byte("2"), []byte("3"), []byte("-4")}, badInt},
	}

	entries := []struct {
		name string
		fn   func()
	}{
		{"parseKey", func() {
			if _, ok := parseKey([]byte("18446744073709551615")); !ok {
				t.Fatal("parseKey rejected max key")
			}
		}},
		{"cmdIs", func() {
			if !cmdIs([]byte("get"), "GET") || cmdIs([]byte("GETX"), "GET") {
				t.Fatal("cmdIs misbehaves")
			}
		}},
		{"conn.parse", func() {
			c.clearQueue()
			if q, f := c.parse('M', mset); f != noFault || q.hi != 2 {
				t.Fatalf("parse(MSET 5 50 6 60) = %+v, %d", q, f)
			}
		}},
		{"conn.parse/refused", func() {
			c.clearQueue()
			for _, r := range refused {
				if _, f := c.parse(r.op, r.args); f != r.want || len(c.keys) != 0 {
					t.Fatalf("parse(%s) = fault %d with %d keys queued, want fault %d and none", r.args[0], f, len(c.keys), r.want)
				}
			}
		}},
		{"conn.replyGet", func() { c.replyGet(42, true, 3, 99) }},
		{"conn.replySet", func() { c.replySet(3, 99) }},
		{"conn.writeSerials", func() { c.writeSerials(serials) }},
	}

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				e.fn()
			}
			if err := c.w.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
			if err := c.w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceAllocFree serves an endless pipelined stream of GET/SET,
// MSET/MGET (a cross-shard TxnSerials transaction each), a MULTI…EXEC block
// queueing GET, SET, MGET and MSET, and a MULTI/DISCARD pair, through the
// full command loop body — frame decode, dispatch, store, reply encode — and
// demands zero allocations per served command once the scratch buffers, the
// connection's flat MULTI queue and the store slots have warmed.
func TestServiceAllocFree(t *testing.T) {
	c := testConn(t, "SET 123 456\r\nGET 123\r\nSET 7001 1\r\nGET 99\r\nMSET 5 1 6 2 7 3\r\nMGET 5 6 7 8\r\n"+
		"MULTI\r\nGET 123\r\nSET 9 90\r\nMGET 1 2 3 4 5 6 7 8\r\nMSET 1 10 2 20 3 30 4 40\r\nEXEC\r\n"+
		"MULTI\r\nSET 9 91\r\nDISCARD\r\n")
	step := func() {
		args, err := c.r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.dispatch(args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // warm store slots, scratch, stats
		step()
	}
	if n := testing.AllocsPerRun(400, step); n != 0 {
		t.Errorf("service allocates %.2f times per command; want 0", n)
	}
}
