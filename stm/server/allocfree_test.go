package server

// Steady-state service allocates zero per operation after warm-up.
// TestAllocFreeAnnotations pins the annotated helper set against
// lint.AllocFreeFuncs (as in stm and stm/resp); TestServiceAllocFree drives
// the real decode→dispatch→store→encode path end to end (minus the socket)
// and measures zero allocations per served command, MSET/MGET and
// MULTI…EXEC included.

import (
	"io"
	"slices"
	"sort"
	"testing"

	"tokentm/internal/lint"
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
		{"conn.replyGet", func() { c.replyGet(42, true, 3, 99) }},
		{"conn.replySet", func() { c.replySet(3, 99) }},
		{"conn.writeSerials", func() { c.writeSerials(serials) }},
	}

	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.name)
	}
	sort.Strings(names)
	want, err := lint.AllocFreeFuncs(".")
	if err != nil {
		t.Fatalf("scanning annotations: %v", err)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("annotation/table drift:\n annotated: %v\n table:     %v", want, names)
	}

	for _, e := range entries {
		e := e
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
