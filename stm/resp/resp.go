// Package resp implements the RESP-lite wire protocol the tokentm-store
// server speaks: a safe subset of Redis's RESP framing, restricted to what
// the KV protocol needs and hardened against hostile input: a malformed
// frame can error but never over-allocate or panic. The Reader's buffer
// grows only for a frame whose headers have passed MaxArgs, MaxBulk and
// MaxInline, and only by what they declare (or, while a header or line is
// still arriving in a full buffer, by doubling, a line never past its
// bound and a header never past maxDigits); and a frame costs time linear
// in its length however the peer splits it across reads.
//
// Requests are commands — an array of bulk strings (`*2\r\n$3\r\nGET\r\n...`)
// or an inline line of space-separated tokens (`GET 17\r\n`, telnet-friendly).
// Replies are RESP values: simple strings (+OK), errors (-RETRY ...),
// integers (:7), bulk strings ($3\r\n...), null bulks ($-1), and arrays.
// Keys, values, and serials travel as decimal integers in bulks; the parser
// and encoder never interpret them beyond framing.
//
// The Reader's command path and the Writer's reply primitives are the
// server's per-operation fast paths: both work in receiver-held buffers,
// so after warm-up a GET/SET round trip allocates nothing (pinned by the
// AllocsPerRun table in allocfree_test.go).
package resp

import (
	"bytes"
	"errors"
	"io"
	"strconv"
)

// Framing bounds. A frame that declares more than these errors out before
// any allocation proportional to the declared size happens.
const (
	// MaxArgs bounds the element count of one command array.
	MaxArgs = 1024
	// MaxBulk bounds the byte length of one bulk string.
	MaxBulk = 64 << 10
	// MaxInline bounds one inline command line (including the terminator).
	MaxInline = 16 << 10
	// maxReplyDepth bounds reply-array nesting (the protocol uses 2).
	maxReplyDepth = 8
)

// Protocol errors. The server surfaces these as -ERR and closes the
// connection; anything else from the Reader is an I/O error.
var (
	ErrTooManyArgs  = errors.New("resp: command array exceeds MaxArgs")
	ErrBulkTooLarge = errors.New("resp: bulk length exceeds MaxBulk")
	ErrLineTooLong  = errors.New("resp: line exceeds MaxInline")
	ErrBadFrame     = errors.New("resp: malformed frame")
	ErrEmptyCommand = errors.New("resp: empty command array")
	ErrDepth        = errors.New("resp: reply nesting exceeds limit")
)

// IsProtocol reports whether err is a framing violation (as opposed to an
// I/O failure): the peer sent bytes that can never parse, so the connection
// is unrecoverable but a final error reply is still worth sending.
func IsProtocol(err error) bool {
	return errors.Is(err, ErrTooManyArgs) || errors.Is(err, ErrBulkTooLarge) ||
		errors.Is(err, ErrLineTooLong) || errors.Is(err, ErrBadFrame) ||
		errors.Is(err, ErrEmptyCommand) || errors.Is(err, ErrDepth)
}

// bufSize is the initial size of a Reader's buffer and the bound past which
// a Writer writes its buffer through.
const bufSize = 4096

// maxEmptyReads bounds consecutive (0, nil) reads before a Reader gives up
// with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// Reader decodes commands and replies from a stream. It parses in place:
// buf[r:w] is the unread window, and a frame is decoded by indexing into it
// rather than byte by byte. A frame the window does not yet hold is moved to
// the front of buf, which grows only when the frame itself needs more room.
// Not safe for concurrent use.
type Reader struct {
	rd   io.Reader
	buf  []byte
	r, w int
	err  error // read error held back until the bytes read with it are parsed

	// Progress through the partial frame at buf[r:], kept across refills
	// so a frame split over many reads is scanned once, not once per read:
	// the pending array command's argument count (0 when none is pending),
	// the frame offset its parse resumes at, the frame-relative
	// [start,end) of each bulk parsed so far, and how far the current line
	// has been searched for its '\n'.
	nargs int
	pos   int
	offs  []int
	scan  int

	args [][]byte // ReadCommand's result, cut from buf
}

// NewReader reads from rd with the default buffer size.
func NewReader(rd io.Reader) *Reader {
	return &Reader{rd: rd, buf: make([]byte, bufSize)}
}

// Buffered reports bytes already read from the stream but not yet consumed —
// nonzero means a pipelined command is waiting and the reply batch should
// not flush yet.
func (r *Reader) Buffered() int { return r.w - r.r }

// ReadCommand reads one command and returns its tokens (verb first). The
// returned slices alias the Reader's buffer and are valid only until the
// next ReadCommand. Separators between frames are skipped. On a malformed
// frame it returns a protocol error (see IsProtocol); a stream that ends
// mid-frame returns io.ErrUnexpectedEOF.
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		for r.r < r.w && isSep(r.buf[r.r]) {
			r.r++ // stray separators between frames
		}
		need := 1
		if r.r < r.w {
			var args [][]byte
			var err error
			if r.buf[r.r] == '*' {
				args, need, err = r.arrayCommand()
			} else {
				args, need, err = r.inlineCommand()
			}
			if err != nil {
				r.nargs, r.scan = 0, 0
				return nil, err
			}
			if need == 0 {
				return args, nil
			}
		}
		// fill grows the buffer only for a frame larger than any before it
		// on this connection, so steady-state commands reuse it
		// (TestAllocFreeAnnotations/Reader.ReadCommand/large).
		if err := r.fill(need, false); err != nil {
			return nil, err
		}
	}
}

func isSep(b byte) bool { return b == '\r' || b == '\n' || b == ' ' || b == '\t' }

// arrayCommand parses `*<n>\r\n` and n `$<len>\r\n<bytes>\r\n` bulks from
// the window, resuming at the first bulk not yet parsed. A positive need is
// the window length it must see before it can go on.
func (r *Reader) arrayCommand() (args [][]byte, need int, err error) {
	win := r.buf[r.r:r.w]
	if r.nargs == 0 {
		n, end, err := parseLength(win, 1)
		switch {
		case err != nil:
			return nil, 0, err
		case end == 0:
			return nil, r.more(win), nil
		case n <= 0:
			return nil, 0, ErrEmptyCommand
		case n > MaxArgs:
			return nil, 0, ErrTooManyArgs
		}
		r.nargs, r.pos, r.offs = int(n), end, r.offs[:0]
	}
	for len(r.offs) < 2*r.nargs {
		if r.pos == len(win) {
			return nil, r.more(win), nil
		}
		if win[r.pos] != '$' {
			return nil, 0, ErrBadFrame
		}
		l, body, err := parseLength(win, r.pos+1)
		switch {
		case err != nil:
			return nil, 0, err
		case body == 0:
			return nil, r.more(win), nil
		case l < 0:
			return nil, 0, ErrBadFrame // null bulks have no place in a command
		case l > MaxBulk:
			return nil, 0, ErrBulkTooLarge
		}
		end := body + int(l)
		if end+2 > len(win) {
			return nil, end + 2, nil
		}
		if win[end] != '\r' || win[end+1] != '\n' {
			return nil, 0, ErrBadFrame
		}
		r.offs = append(r.offs, body, end)
		r.pos = end + 2
	}
	r.args = r.args[:0]
	for i := 0; i < len(r.offs); i += 2 {
		r.args = append(r.args, win[r.offs[i]:r.offs[i+1]:r.offs[i+1]])
	}
	r.r += r.pos
	r.nargs = 0
	return r.args, 0, nil
}

// inlineCommand parses one line of space-separated tokens from the window.
// A bare '\r' inside the line is a framing error (a frame boundary can
// never appear mid-token).
func (r *Reader) inlineCommand() (args [][]byte, need int, err error) {
	win := r.buf[r.r:r.w]
	end, need, err := r.lineEnd(win, 0)
	if err != nil || need > 0 {
		return nil, need, err
	}
	line := win[:end]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	r.args = r.args[:0]
	n := 0
	for i := 0; i < len(line); {
		if line[i] == ' ' || line[i] == '\t' {
			i++
			continue
		}
		j := i
		for ; j < len(line) && line[j] != ' ' && line[j] != '\t'; j++ {
			if line[j] == '\r' {
				return nil, 0, ErrBadFrame
			}
		}
		if n++; n <= MaxArgs {
			r.args = append(r.args, line[i:j:j])
		}
		i = j
	}
	if n > MaxArgs {
		return nil, 0, ErrTooManyArgs
	}
	r.r += end + 1
	return r.args, 0, nil
}

// lineEnd returns the offset of the '\n' ending the line that starts at
// win[start], resuming the search where the last short window stopped. A
// line longer than MaxInline is an error; a positive need is the window
// length to read up to before searching on.
func (r *Reader) lineEnd(win []byte, start int) (end, need int, err error) {
	bound := start + MaxInline + 1
	lim := min(len(win), bound)
	from := max(start, r.scan)
	if i := bytes.IndexByte(win[from:lim], '\n'); i >= 0 {
		r.scan = 0
		return from + i, 0, nil
	}
	if lim == bound {
		return 0, 0, ErrLineTooLong
	}
	r.scan = lim
	return 0, min(r.more(win), bound), nil
}

// more is the window length to ask for when the next piece of a frame is a
// header or line whose length is not yet known: one byte more, or, when the
// window already fills the buffer, twice the buffer.
func (r *Reader) more(win []byte) int {
	if len(win) < len(r.buf) {
		return len(win) + 1
	}
	return 2 * len(r.buf)
}

// maxDigits bounds the digits of one length or integer, leading zeros
// included, so a header is never buffered or rescanned past a few bytes.
const maxDigits = 20

// parseLength parses the signed decimal and CRLF at win[i:] — an array or
// bulk header, or an integer reply — returning the value and the offset
// past the CRLF, or end 0 when the window ends first. Values past 1<<62
// and runs of more than maxDigits digits are rejected, so no real frame
// overflows int64.
func parseLength(win []byte, i int) (n int64, end int, err error) {
	neg := i < len(win) && win[i] == '-'
	if neg {
		i++
	}
	digits := i
	for ; i < len(win) && win[i] >= '0' && win[i] <= '9'; i++ {
		if n > (1<<62)/10 || i-digits == maxDigits {
			return 0, 0, ErrBadFrame
		}
		n = n*10 + int64(win[i]-'0')
	}
	switch {
	case i == len(win):
		return 0, 0, nil
	case win[i] != '\r' || i == digits:
		return 0, 0, ErrBadFrame
	case i+1 == len(win):
		return 0, 0, nil
	case win[i+1] != '\n':
		return 0, 0, ErrBadFrame
	}
	if neg {
		n = -n
	}
	return n, i + 2, nil
}

// fill reads more of the stream after moving the partial frame to the front
// of buf, growing buf first if the frame needs a window of more than it
// holds. A stream that ends inside a value (bytes of it are buffered, or
// inValue) yields io.ErrUnexpectedEOF rather than io.EOF.
func (r *Reader) fill(need int, inValue bool) error {
	mid := inValue || r.r < r.w
	if r.r > 0 {
		r.w = copy(r.buf, r.buf[r.r:r.w])
		r.r = 0
	}
	if need > len(r.buf) {
		buf := make([]byte, need)
		copy(buf, r.buf[:r.w])
		r.buf = buf
	}
	err := r.err
	r.err = nil
	for i := 0; err == nil; i++ {
		if i == maxEmptyReads {
			return io.ErrNoProgress
		}
		var n int
		n, err = r.rd.Read(r.buf[r.w:])
		r.w += n
		if n > 0 {
			r.err = err
			return nil
		}
	}
	if mid && err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Reply is one decoded RESP reply value (client side). Arrays allocate;
// the client path does not need the server's zero-allocation discipline.
type Reply struct {
	Type  byte   // '+', '-', ':', '$', '*'
	Str   string // simple/error/bulk contents
	Null  bool   // null bulk ($-1)
	Int   int64
	Elems []Reply
}

// ReadReply decodes one reply value.
func (r *Reader) ReadReply() (Reply, error) {
	return r.readReply(0)
}

func (r *Reader) readReply(depth int) (Reply, error) {
	if depth > maxReplyDepth {
		return Reply{}, ErrDepth
	}
	for {
		rep, need, err := r.replyValue()
		if err != nil {
			r.scan = 0
			return Reply{}, err
		}
		if need > 0 {
			if err := r.fill(need, depth > 0); err != nil {
				return Reply{}, err
			}
			continue
		}
		if rep.Type != '*' {
			return rep, nil
		}
		n := rep.Int
		rep.Int, rep.Elems = 0, make([]Reply, 0, n)
		for range n {
			e, err := r.readReply(depth + 1)
			if err != nil {
				return Reply{}, err
			}
			rep.Elems = append(rep.Elems, e)
		}
		return rep, nil
	}
}

// replyValue parses one scalar reply, or an array's header (its count in
// Int), from the window and consumes it. A positive need is the window
// length it must see first.
func (r *Reader) replyValue() (rep Reply, need int, err error) {
	win := r.buf[r.r:r.w]
	if len(win) == 0 {
		return Reply{}, 1, nil
	}
	rep.Type = win[0]
	switch rep.Type {
	case '+', '-':
		end, need, err := r.lineEnd(win, 1)
		if err != nil || need > 0 {
			return Reply{}, need, err
		}
		if end == 1 || win[end-1] != '\r' {
			return Reply{}, 0, ErrBadFrame
		}
		rep.Str = string(win[1 : end-1])
		r.r += end + 1
		return rep, 0, nil
	case ':', '$', '*':
	default:
		return Reply{}, 0, ErrBadFrame
	}
	n, end, err := parseLength(win, 1)
	if err != nil || end == 0 {
		return Reply{}, r.more(win), err
	}
	switch {
	case rep.Type == ':':
		rep.Int = n
	case rep.Type == '*':
		if n < 0 || n > MaxArgs {
			return Reply{}, 0, ErrTooManyArgs
		}
		rep.Int = n
	case n == -1:
		rep.Null = true
	case n < 0 || n > MaxBulk:
		return Reply{}, 0, ErrBulkTooLarge
	default:
		stop := end + int(n)
		if stop+2 > len(win) {
			return Reply{}, stop + 2, nil
		}
		if win[stop] != '\r' || win[stop+1] != '\n' {
			return Reply{}, 0, ErrBadFrame
		}
		rep.Str = string(win[end:stop])
		end = stop + 2
	}
	r.r += end
	return rep, 0, nil
}

// Writer encodes RESP frames into its own buffer. Not safe for concurrent
// use. Nothing reaches the wire until Flush, except that a buffer that has
// passed bufSize is written through at the end of the element that passed
// it, so a long reply streams out instead of accumulating.
type Writer struct {
	wr  io.Writer
	buf []byte
	err error // the first write error; every later call returns it
}

// NewWriter writes to w with the default buffer size.
func NewWriter(w io.Writer) *Writer {
	return &Writer{wr: w, buf: make([]byte, 0, bufSize)}
}

// Flush writes the buffered frames to the underlying stream.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		n, err := w.wr.Write(w.buf)
		if err == nil && n < len(w.buf) {
			err = io.ErrShortWrite
		}
		w.err = err
	}
	w.buf = w.buf[:0]
	return w.err
}

// end closes one element, writing the buffer through once it passes
// bufSize.
func (w *Writer) end() error {
	if len(w.buf) > bufSize {
		return w.Flush()
	}
	return w.err
}

// WriteSimple emits +s.
func (w *Writer) WriteSimple(s string) error {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// WriteErrorString emits -s. s must not contain CR or LF.
func (w *Writer) WriteErrorString(s string) error {
	w.buf = append(w.buf, '-')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// WriteUint emits :v.
func (w *Writer) WriteUint(v uint64) error {
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendUint(w.buf, v, 10)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// bulkHeader appends the $len line that opens a bulk of n bytes.
func (w *Writer) bulkHeader(n int) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.buf = append(w.buf, '\r', '\n')
}

// WriteBulk emits $len\r\nb.
func (w *Writer) WriteBulk(b []byte) error {
	w.bulkHeader(len(b))
	w.buf = append(w.buf, b...)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// WriteBulkString is WriteBulk for string payloads (INFO text).
func (w *Writer) WriteBulkString(s string) error {
	w.bulkHeader(len(s))
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// WriteBulkUint emits the decimal rendering of v as a bulk string — the
// value format of the KV protocol.
func (w *Writer) WriteBulkUint(v uint64) error {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], v, 10)
	w.bulkHeader(len(digits))
	w.buf = append(w.buf, digits...)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// WriteNull emits the null bulk $-1 (absent value).
func (w *Writer) WriteNull() error {
	w.buf = append(w.buf, "$-1\r\n"...)
	return w.end()
}

// WriteArrayHeader emits *n; the caller writes the n elements after it.
func (w *Writer) WriteArrayHeader(n int) error {
	w.buf = append(w.buf, '*')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.buf = append(w.buf, '\r', '\n')
	return w.end()
}

// WriteCommandArgs encodes one command in array form — the client-side
// encoder, and the canonical form the fuzz round-trip re-parses.
func (w *Writer) WriteCommandArgs(args [][]byte) error {
	if err := w.WriteArrayHeader(len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulk(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteCommand encodes a command given as strings (tests, interactive use).
func (w *Writer) WriteCommand(args ...string) error {
	if err := w.WriteArrayHeader(len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulkString(a); err != nil {
			return err
		}
	}
	return nil
}

// ParseUint parses a decimal token (a key, value, or count argument).
// Rejects empty tokens, non-digits, leading-zero padding beyond "0", and
// overflow — a strict inverse of WriteBulkUint so values round-trip exactly.
func ParseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	if b[0] == '0' && len(b) > 1 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
