package resp

// The byte-at-a-time decoder the window parser replaced, kept as the oracle
// for FuzzDecodeMatchesReference: one bufio.ReadByte per wire byte, every
// argument byte appended to scratch. Its framing rules are the protocol's
// definition; the window parser must agree with it on every input, however
// the stream is split.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"
)

type refReader struct {
	br   *bufio.Reader
	buf  []byte
	offs []int
}

func newRefReader(r io.Reader) *refReader {
	return &refReader{br: bufio.NewReaderSize(r, 4096)}
}

func (r *refReader) ReadCommand() ([][]byte, error) {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch b {
		case '\r', '\n', ' ', '\t':
			continue
		case '*':
			return r.readArrayCommand()
		default:
			args, err := r.readInlineCommand(b)
			if err != nil {
				return nil, err
			}
			if len(args) == 0 {
				continue
			}
			return args, nil
		}
	}
}

func (r *refReader) readArrayCommand() ([][]byte, error) {
	n, err := r.readLength()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, ErrEmptyCommand
	}
	if n > MaxArgs {
		return nil, ErrTooManyArgs
	}
	r.buf = r.buf[:0]
	r.offs = r.offs[:0]
	for i := int64(0); i < n; i++ {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if b != '$' {
			return nil, ErrBadFrame
		}
		l, err := r.readLength()
		if err != nil {
			return nil, err
		}
		if l < 0 {
			return nil, ErrBadFrame
		}
		if l > MaxBulk {
			return nil, ErrBulkTooLarge
		}
		start := len(r.buf)
		for j := int64(0); j < l; j++ {
			b, err := r.br.ReadByte()
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			r.buf = append(r.buf, b)
		}
		if err := r.expectCRLF(); err != nil {
			return nil, err
		}
		r.offs = append(r.offs, start, len(r.buf))
	}
	return r.cut(), nil
}

func (r *refReader) readInlineCommand(first byte) ([][]byte, error) {
	r.buf = append(r.buf[:0], first)
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if b == '\n' {
			break
		}
		if len(r.buf) >= MaxInline {
			return nil, ErrLineTooLong
		}
		r.buf = append(r.buf, b)
	}
	if n := len(r.buf); n > 0 && r.buf[n-1] == '\r' {
		r.buf = r.buf[:n-1]
	}
	r.offs = r.offs[:0]
	start := -1
	for i, b := range r.buf {
		switch b {
		case ' ', '\t':
			if start >= 0 {
				r.offs = append(r.offs, start, i)
				start = -1
			}
		case '\r':
			return nil, ErrBadFrame
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		r.offs = append(r.offs, start, len(r.buf))
	}
	if len(r.offs)/2 > MaxArgs {
		return nil, ErrTooManyArgs
	}
	return r.cut(), nil
}

func (r *refReader) cut() [][]byte {
	args := make([][]byte, 0, len(r.offs)/2)
	for i := 0; i < len(r.offs); i += 2 {
		args = append(args, r.buf[r.offs[i]:r.offs[i+1]])
	}
	return args
}

func (r *refReader) readLength() (int64, error) {
	var (
		n      int64
		neg    bool
		first  = true
		seen   = false
		digits = 0
	)
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, unexpectedEOF(err)
		}
		switch {
		case b == '\r':
			if !seen {
				return 0, ErrBadFrame
			}
			b2, err := r.br.ReadByte()
			if err != nil {
				return 0, unexpectedEOF(err)
			}
			if b2 != '\n' {
				return 0, ErrBadFrame
			}
			if neg {
				n = -n
			}
			return n, nil
		case b == '-' && first:
			neg = true
		case b >= '0' && b <= '9':
			if n > (1<<62)/10 || digits == maxDigits {
				return 0, ErrBadFrame
			}
			n = n*10 + int64(b-'0')
			seen = true
			digits++
		default:
			return 0, ErrBadFrame
		}
		first = false
	}
}

func (r *refReader) expectCRLF() error {
	b1, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	b2, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if b1 != '\r' || b2 != '\n' {
		return ErrBadFrame
	}
	return nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (r *refReader) ReadReply() (Reply, error) {
	return r.readReply(0)
}

func (r *refReader) readReply(depth int) (Reply, error) {
	if depth > maxReplyDepth {
		return Reply{}, ErrDepth
	}
	t, err := r.br.ReadByte()
	if err != nil {
		if depth > 0 {
			// A stream cut between array elements is truncated, not
			// cleanly ended.
			return Reply{}, unexpectedEOF(err)
		}
		return Reply{}, err
	}
	switch t {
	case '+', '-':
		line, err := r.readLine()
		if err != nil {
			return Reply{}, err
		}
		return Reply{Type: t, Str: string(line)}, nil
	case ':':
		n, err := r.readLength()
		if err != nil {
			return Reply{}, err
		}
		return Reply{Type: t, Int: n}, nil
	case '$':
		l, err := r.readLength()
		if err != nil {
			return Reply{}, err
		}
		if l == -1 {
			return Reply{Type: t, Null: true}, nil
		}
		if l < 0 || l > MaxBulk {
			return Reply{}, ErrBulkTooLarge
		}
		body := make([]byte, l)
		if _, err := io.ReadFull(r.br, body); err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if err := r.expectCRLF(); err != nil {
			return Reply{}, err
		}
		return Reply{Type: t, Str: string(body)}, nil
	case '*':
		n, err := r.readLength()
		if err != nil {
			return Reply{}, err
		}
		if n < 0 || n > MaxArgs {
			return Reply{}, ErrTooManyArgs
		}
		rep := Reply{Type: t, Elems: make([]Reply, 0, n)}
		for i := int64(0); i < n; i++ {
			e, err := r.readReply(depth + 1)
			if err != nil {
				return Reply{}, err
			}
			rep.Elems = append(rep.Elems, e)
		}
		return rep, nil
	default:
		return Reply{}, ErrBadFrame
	}
}

func (r *refReader) readLine() ([]byte, error) {
	r.buf = r.buf[:0]
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if b == '\n' {
			break
		}
		if len(r.buf) >= MaxInline {
			return nil, ErrLineTooLong
		}
		r.buf = append(r.buf, b)
	}
	if n := len(r.buf); n > 0 && r.buf[n-1] == '\r' {
		return r.buf[:n-1], nil
	}
	return nil, ErrBadFrame
}

// replySeeds add the reply shapes the server writes, whole and truncated, to
// the command corpus.
var replySeeds = []string{
	"*3\r\n$2\r\n42\r\n:1\r\n:7\r\n*2\r\n:1\r\n:8\r\n",
	"*2\r\n*2\r\n$1\r\n1\r\n$-1\r\n*4\r\n:0\r\n:3\r\n:0\r\n:0\r\n",
	"+OK\r\n+QUEUED\r\n-RETRY transaction aborted\r\n",
	"$0\r\n\r\n$-1\r\n:-5\r\n*0\r\n",
	"*2\r\n:1\r\n",
	"+OK\r",
	"+OK\n",
	"$3\r\nab",
	"*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n:1\r\n",
}

// FuzzDecodeMatchesReference decodes each input as a command stream and as
// a reply stream, whole and split into 1-byte, 3-byte and seeded-random
// reads, and requires the window parser to produce exactly the reference
// decoder's results — values, then the first error — under every split.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range append(slices.Clone(fuzzSeeds), replySeeds...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		wantCmds := commandResults(newRefReader(bytes.NewReader(in)).ReadCommand)
		wantReps := replyResults(newRefReader(bytes.NewReader(in)).ReadReply)
		for _, split := range splitReaders(in) {
			if got := commandResults(NewReader(split.r).ReadCommand); !slices.Equal(got, wantCmds) {
				t.Fatalf("%s: commands of %q\n got  %q\n want %q", split.name, in, got, wantCmds)
			}
		}
		for _, split := range splitReaders(in) {
			if got := replyResults(NewReader(split.r).ReadReply); !slices.Equal(got, wantReps) {
				t.Fatalf("%s: replies of %q\n got  %q\n want %q", split.name, in, got, wantReps)
			}
		}
	})
}

type namedReader struct {
	name string
	r    io.Reader
}

// splitReaders serves in whole, a byte at a time, three bytes at a time,
// and in seeded random pieces of 1-16 bytes.
func splitReaders(in []byte) []namedReader {
	rng := rand.New(rand.NewSource(int64(len(in))))
	return []namedReader{
		{"whole", bytes.NewReader(in)},
		{"1-byte", iotest.OneByteReader(bytes.NewReader(in))},
		{"3-byte", &chunkReader{data: in, size: func() int { return 3 }}},
		{"random", &chunkReader{data: in, size: func() int { return 1 + rng.Intn(16) }}},
	}
}

// chunkReader hands data out in pieces of size() bytes at most.
type chunkReader struct {
	data []byte
	size func() int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.size())], c.data)
	c.data = c.data[n:]
	return n, nil
}

// commandResults renders every command until the first error, then the
// error.
func commandResults(read func() ([][]byte, error)) []string {
	var out []string
	for {
		args, err := read()
		if err != nil {
			return append(out, errorResult(err))
		}
		out = append(out, fmt.Sprintf("%q", args))
	}
}

func replyResults(read func() (Reply, error)) []string {
	var out []string
	for {
		rep, err := read()
		if err != nil {
			return append(out, errorResult(err))
		}
		out = append(out, fmt.Sprintf("%#v", rep))
	}
}

// errorResult names a decode error: the protocol error itself, or the
// stream's end, clean or mid-frame.
func errorResult(err error) string {
	switch {
	case IsProtocol(err), errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "error: " + err.Error()
	}
	panic(fmt.Sprintf("unexpected error class: %v", err))
}
