package resp

// TestAllocFreeAnnotations is this package's allocation guard, mirroring
// stm's table: each row must measure zero allocations per run once the
// reader/writer scratch buffers have warmed — the property the server leans
// on for alloc-free steady-state GET/SET service. Besides whole frames, the
// rows decode frames split over many reads and larger than the initial
// buffer, and every malformed-frame and short-stream error, so an allocation
// on any path ReadCommand can take fails a named row.

import (
	"io"
	"strings"
	"testing"
)

// loopReader hands out the same frame forever, at most chunk bytes a read
// when chunk is set, so one Reader can decode an unbounded command stream
// without the driver touching it between runs.
type loopReader struct {
	frame []byte
	pos   int
	chunk int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.pos == len(l.frame) {
		l.pos = 0
	}
	if l.chunk > 0 && len(p) > l.chunk {
		p = p[:l.chunk]
	}
	n := copy(p, l.frame[l.pos:])
	l.pos += n
	return n, nil
}

// stallReader never returns data: (0, nil) forever, or (0, err).
type stallReader struct{ err error }

func (s stallReader) Read([]byte) (int, error) { return 0, s.err }

// tailReader returns its bytes together with io.EOF, which the Reader holds
// back until those bytes are parsed.
type tailReader struct {
	data []byte
	done bool
}

func (t *tailReader) Read(p []byte) (int, error) {
	if t.done {
		return 0, io.EOF
	}
	t.done = true
	return copy(p, t.data), io.EOF
}

// shortWriter accepts one byte fewer than it is given.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return max(len(p)-1, 0), nil }

func TestAllocFreeAnnotations(t *testing.T) {
	const array = "*3\r\n$3\r\nSET\r\n$10\r\n1234567890\r\n$20\r\n18446744073709551615\r\n"
	rdArray := NewReader(&loopReader{frame: []byte(array)})
	rdInline := NewReader(&loopReader{frame: []byte("GET 1234567890\r\n")})
	// Split frames: three bytes a read, stray separators between frames.
	rdSplit := NewReader(&loopReader{frame: []byte(array + "\r\n GET 1234567890\r\n"), chunk: 3})
	// Frames past the initial buffer: the first read finds a full buffer
	// holding part of a line or bulk, and the warm-up grows it once.
	long := strings.Repeat("7", 6000)
	rdLarge := NewReader(&loopReader{frame: []byte("SET 1 " + long + "\r\n*2\r\n$3\r\nGET\r\n$6000\r\n" + long + "\r\n")})
	w := NewWriter(io.Discard)
	payload := []byte("steady-state payload")
	num := []byte("18446744073709551615")

	// bad decodes one frame placed directly in its buffer, over a stream
	// that ends there, and returns ReadCommand's error. Its buffer holds a
	// line past MaxInline.
	bad := NewReader(stallReader{err: io.EOF})
	bad.buf = make([]byte, 2*MaxInline)
	decode := func(r *Reader, frame string) error {
		r.r, r.w, r.err = 0, copy(r.buf, frame), nil
		r.nargs, r.scan = 0, 0
		_, err := r.ReadCommand()
		return err
	}
	badFrames := []struct {
		frame string
		want  error
	}{
		{"*0\r\n", ErrEmptyCommand},
		{"*-1\r\n", ErrEmptyCommand},
		{"*1025\r\n", ErrTooManyArgs},
		{"*x\r\n", ErrBadFrame},
		{"*1\rx", ErrBadFrame},
		{"*123456789012345678901\r\n", ErrBadFrame},
		{"*99999999999999999999\r\n", ErrBadFrame},
		{"*1\r\n+GET\r\n", ErrBadFrame},
		{"*1\r\n$x\r\n", ErrBadFrame},
		{"*1\r\n$-1\r\n", ErrBadFrame},
		{"*1\r\n$65537\r\n", ErrBulkTooLarge},
		{"*1\r\n$3\r\nGETxx", ErrBadFrame},
		{"GET 1\r2\r\n", ErrBadFrame},
		{strings.Repeat("a ", MaxArgs+1) + "\r\n", ErrTooManyArgs},
		{strings.Repeat("a", MaxInline+1) + "\r\n", ErrLineTooLong},
		{"*1", io.ErrUnexpectedEOF},
		{"*1\r", io.ErrUnexpectedEOF},
		{"*1\r\n", io.ErrUnexpectedEOF},
		{"*1\r\n$3", io.ErrUnexpectedEOF},
		{"*1\r\n$3\r\nGE", io.ErrUnexpectedEOF},
		{"GET", io.ErrUnexpectedEOF},
		{"", io.EOF},
	}
	stalled := NewReader(stallReader{})
	tail := &tailReader{data: []byte("GET 1\r\n")}
	rdTail := NewReader(tail)
	short := NewWriter(shortWriter{})
	rejects := [][]byte{nil, []byte("012"), []byte("1x"), []byte("18446744073709551616"), []byte("123456789012345678901")}

	entries := []struct {
		name string
		fn   func()
	}{
		{"Reader.ReadCommand", func() {
			if _, err := rdArray.ReadCommand(); err != nil {
				t.Fatal(err)
			}
			if _, err := rdInline.ReadCommand(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Reader.ReadCommand/split", func() {
			for i := 0; i < 2; i++ {
				if _, err := rdSplit.ReadCommand(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"Reader.ReadCommand/large", func() {
			for i := 0; i < 2; i++ {
				if args, err := rdLarge.ReadCommand(); err != nil || len(args[len(args)-1]) != len(long) {
					t.Fatal("large frame misread")
				}
			}
		}},
		{"Reader.ReadCommand/errors", func() {
			for _, c := range badFrames {
				if err := decode(bad, c.frame); err != c.want {
					t.Fatalf("%.20q: got %v, want %v", c.frame, err, c.want)
				}
			}
		}},
		{"Reader.ReadCommand/no-progress", func() {
			if err := decode(stalled, ""); err != io.ErrNoProgress {
				t.Fatalf("got %v, want io.ErrNoProgress", err)
			}
		}},
		{"Reader.ReadCommand/held-error", func() {
			// The last command arrives with io.EOF: it decodes, and the next
			// call returns the held error.
			tail.done, rdTail.r, rdTail.w = false, 0, 0
			if _, err := rdTail.ReadCommand(); err != nil {
				t.Fatal(err)
			}
			if _, err := rdTail.ReadCommand(); err != io.EOF {
				t.Fatalf("got %v, want io.EOF", err)
			}
		}},
		{"Writer.WriteSimple", func() { w.WriteSimple("OK") }},
		{"Writer.WriteErrorString", func() { w.WriteErrorString("RETRY transaction aborted") }},
		{"Writer.WriteUint", func() { w.WriteUint(18446744073709551615) }},
		{"Writer.WriteBulk", func() { w.WriteBulk(payload) }},
		{"Writer.WriteBulkString", func() { w.WriteBulkString("bulk string") }},
		{"Writer.WriteBulkUint", func() { w.WriteBulkUint(18446744073709551615) }},
		{"Writer.WriteNull", func() { w.WriteNull() }},
		{"Writer.WriteArrayHeader", func() { w.WriteArrayHeader(3) }},
		{"Writer.Flush/short-write", func() {
			short.err = nil
			short.WriteSimple("OK")
			if err := short.Flush(); err != io.ErrShortWrite {
				t.Fatalf("got %v, want io.ErrShortWrite", err)
			}
		}},
		{"ParseUint", func() {
			if _, ok := ParseUint(num); !ok {
				t.Fatal("ParseUint rejected max uint64")
			}
		}},
		{"ParseUint/rejects", func() {
			for _, b := range rejects {
				if _, ok := ParseUint(b); ok {
					t.Fatalf("ParseUint accepted %q", b)
				}
			}
		}},
	}

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				e.fn()
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
