package resp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func parseAll(t *testing.T, in string) [][]string {
	t.Helper()
	r := NewReader(strings.NewReader(in))
	var out [][]string
	for {
		args, err := r.ReadCommand()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadCommand(%q): %v", in, err)
		}
		cp := make([]string, len(args))
		for i, a := range args {
			cp[i] = string(a)
		}
		out = append(out, cp)
	}
}

func TestReadCommandForms(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"PING\r\n", [][]string{{"PING"}}},
		{"GET 17\r\n", [][]string{{"GET", "17"}}},
		{"SET  1   2\r\n", [][]string{{"SET", "1", "2"}}},            // runs of spaces collapse
		{"GET 1\nGET 2\r\n", [][]string{{"GET", "1"}, {"GET", "2"}}}, // bare LF accepted inline
		{"\r\n\r\nPING\r\n", [][]string{{"PING"}}},                   // blank lines skipped
		{"*1\r\n$4\r\nPING\r\n", [][]string{{"PING"}}},               // array form
		{"*3\r\n$3\r\nSET\r\n$1\r\n7\r\n$2\r\n42\r\n", [][]string{{"SET", "7", "42"}}},
		{"*2\r\n$3\r\nGET\r\n$0\r\n\r\n", [][]string{{"GET", ""}}},                          // empty bulk is legal framing
		{"GET 1\r\n*2\r\n$3\r\nGET\r\n$1\r\n2\r\n", [][]string{{"GET", "1"}, {"GET", "2"}}}, // mixed pipeline
	}
	for _, c := range cases {
		if got := parseAll(t, c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parse %q = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReadCommandErrors(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"*0\r\n", ErrEmptyCommand},
		{"*-1\r\n", ErrEmptyCommand},
		{"*99999\r\n", ErrTooManyArgs},
		{"*1\r\n$99999999\r\n", ErrBulkTooLarge},
		{"*1\r\n$-1\r\n", ErrBadFrame},          // null bulk in a command
		{"*1\r\n#3\r\nfoo\r\n", ErrBadFrame},    // not a bulk header
		{"*1\r\n$3\r\nfoobar\r\n", ErrBadFrame}, // body longer than declared
		{"*x\r\n", ErrBadFrame},
		{"*1\r\n$x\r\n", ErrBadFrame},
		{"*\r\n", ErrBadFrame},        // no digits
		{"GET 1\rX\r\n", ErrBadFrame}, // bare CR inside an inline line
		{"*1\r\n$3\r\nGET", io.ErrUnexpectedEOF},
		{"*2\r\n$3\r\nGET\r\n", io.ErrUnexpectedEOF},
		{"*1\r\n", io.ErrUnexpectedEOF},
		{"GET 1", io.ErrUnexpectedEOF},                // inline without terminator
		{"*99999999999999999999999\r\n", ErrBadFrame}, // length overflow
	}
	for _, c := range cases {
		r := NewReader(strings.NewReader(c.in))
		_, err := r.ReadCommand()
		if !errors.Is(err, c.want) {
			t.Errorf("ReadCommand(%q) err = %v, want %v", c.in, err, c.want)
		}
		if c.want != io.ErrUnexpectedEOF && !IsProtocol(err) {
			t.Errorf("ReadCommand(%q): %v not classified as protocol error", c.in, err)
		}
	}
}

func TestInlineTooLong(t *testing.T) {
	r := NewReader(strings.NewReader("GET " + strings.Repeat("9", MaxInline) + "\r\n"))
	if _, err := r.ReadCommand(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
}

func TestWriteReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteSimple("OK")
	w.WriteErrorString("RETRY transaction aborted")
	w.WriteUint(12345)
	w.WriteBulk([]byte("hello"))
	w.WriteBulkUint(18446744073709551615)
	w.WriteBulkUint(0)
	w.WriteNull()
	w.WriteArrayHeader(2)
	w.WriteUint(1)
	w.WriteArrayHeader(1)
	w.WriteBulkString("nested")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	want := []Reply{
		{Type: '+', Str: "OK"},
		{Type: '-', Str: "RETRY transaction aborted"},
		{Type: ':', Int: 12345},
		{Type: '$', Str: "hello"},
		{Type: '$', Str: "18446744073709551615"},
		{Type: '$', Str: "0"},
		{Type: '$', Null: true},
		{Type: '*', Elems: []Reply{
			{Type: ':', Int: 1},
			{Type: '*', Elems: []Reply{{Type: '$', Str: "nested"}}},
		}},
	}
	for i, exp := range want {
		got, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("reply %d = %+v, want %+v", i, got, exp)
		}
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("trailing ReadReply err = %v, want EOF", err)
	}
}

func TestReplyDepthBound(t *testing.T) {
	in := strings.Repeat("*1\r\n", maxReplyDepth+2) + ":1\r\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.ReadReply(); !errors.Is(err, ErrDepth) {
		t.Fatalf("err = %v, want ErrDepth", err)
	}
}

func TestParseUint(t *testing.T) {
	good := map[string]uint64{
		"0": 0, "7": 7, "42": 42, "18446744073709551615": ^uint64(0),
	}
	for s, want := range good {
		if got, ok := ParseUint([]byte(s)); !ok || got != want {
			t.Errorf("ParseUint(%q) = (%d,%v), want (%d,true)", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "-1", "1x", "007", "18446744073709551616", "999999999999999999999"} {
		if _, ok := ParseUint([]byte(s)); ok {
			t.Errorf("ParseUint(%q) accepted", s)
		}
	}
}

func TestWriteBulkUintMatchesWriteBulk(t *testing.T) {
	// WriteBulkUint must agree with the general encoder at every
	// digit-count boundary.
	vals := []uint64{0, 1<<32 - 1, 1 << 32, ^uint64(0)}
	for p := uint64(10); p <= 1e19; p *= 10 {
		vals = append(vals, p-1, p)
	}
	for _, v := range vals {
		var a, b bytes.Buffer
		wa, wb := NewWriter(&a), NewWriter(&b)
		wa.WriteBulkUint(v)
		var num [24]byte
		wb.WriteBulk(appendUintForTest(num[:0], v))
		wa.Flush()
		wb.Flush()
		if a.String() != b.String() {
			t.Errorf("WriteBulkUint(%d) = %q, WriteBulk = %q", v, a.String(), b.String())
		}
	}
}

func appendUintForTest(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp[i:]...)
}

// fuzzSeeds are the frames the protocol actually exchanges plus the
// truncation/oversize/embedded-CRLF corpus.
var fuzzSeeds = []string{
	"PING\r\n",
	"GET 17\r\n",
	"SET 1 2\r\n",
	"MGET 1 2 3\r\n",
	"MULTI\r\nSET 1 2\r\nEXEC\r\n",
	"*1\r\n$4\r\nPING\r\n",
	"*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$1\r\n2\r\n",
	"*2\r\n$3\r\nGET\r\n$20\r\n18446744073709551615\r\n",
	// Truncated frames.
	"*2\r\n$3\r\nGET",
	"*1\r\n$3\r\nGE",
	"*3\r\n$3\r\nSET\r\n",
	"GET 1",
	"*1\r\n",
	"$",
	"*",
	// Oversized declarations.
	"*1\r\n$9999999999\r\nx\r\n",
	"*2147483647\r\n",
	"*1\r\n$-9223372036854775808\r\n",
	"*99999999999999999999999999\r\n",
	"*1\r\n$00000000000000000004\r\nPING\r\n",
	"*1\r\n$000000000000000000004\r\nPING\r\n",
	":000000000000000000000000\r\n",
	// Embedded CR/LF and other separator abuse.
	"GET 1\rX\r\n",
	"GET\r1\r\n",
	"*1\r\n$4\r\nGE\r\n\r\n",
	"*1\r\n$2\r\n\r\n\r\n",
	"\r\n\n\n  \r\nPING\r\n",
	"*1\n$4\nPING\n",
	"*1\r\n$0\r\n\r\n",
	"*0\r\n",
}

// FuzzRESPRoundTrip: any input either fails to parse (with an error, never a
// panic, never an arg past the bounds) or parses to a command that survives
// encode→parse→encode byte-identically. Seeded with the frames the protocol
// actually exchanges plus the truncation/oversize/embedded-CRLF corpus the
// satellite calls out.
func FuzzRESPRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewReader(bytes.NewReader(in))
		args, err := r.ReadCommand()
		if err != nil {
			return // rejected is fine; panics/hangs are the bug class
		}
		if len(args) == 0 || len(args) > MaxArgs {
			t.Fatalf("accepted command with %d args", len(args))
		}
		for _, a := range args {
			if len(a) > MaxBulk {
				t.Fatalf("accepted %d-byte arg past MaxBulk", len(a))
			}
		}

		// Canonical encode, re-parse, re-encode: fixed point after one hop.
		var enc1 bytes.Buffer
		w := NewWriter(&enc1)
		if err := w.WriteCommandArgs(args); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// args aliases the reader's scratch; copy before reusing readers.
		orig := make([][]byte, len(args))
		for i, a := range args {
			orig[i] = append([]byte(nil), a...)
		}

		r2 := NewReader(bytes.NewReader(enc1.Bytes()))
		args2, err := r2.ReadCommand()
		if err != nil {
			t.Fatalf("re-parse of canonical encoding %q: %v", enc1.Bytes(), err)
		}
		if len(args2) != len(orig) {
			t.Fatalf("round trip changed arg count: %d -> %d", len(orig), len(args2))
		}
		for i := range orig {
			if !bytes.Equal(orig[i], args2[i]) {
				t.Fatalf("round trip changed arg %d: %q -> %q", i, orig[i], args2[i])
			}
		}
		var enc2 bytes.Buffer
		w2 := NewWriter(&enc2)
		w2.WriteCommandArgs(args2)
		w2.Flush()
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("canonical encoding not a fixed point: %q vs %q", enc1.Bytes(), enc2.Bytes())
		}
	})
}

// splitRead serves data as two reads, the first ending at offset k.
type splitRead struct {
	data []byte
	k    int
}

func (s *splitRead) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := len(s.data)
	if s.k > 0 {
		n, s.k = s.k, 0
	}
	n = copy(p[:min(n, len(p))], s.data)
	s.data = s.data[n:]
	return n, nil
}

func encodeCommand(args ...string) []byte {
	var b bytes.Buffer
	w := NewWriter(&b)
	w.WriteCommand(args...)
	w.Flush()
	return b.Bytes()
}

// TestSplitAtEveryOffset: a frame cut anywhere across two reads decodes as
// it does whole.
func TestSplitAtEveryOffset(t *testing.T) {
	mset := []string{"MSET"}
	for k := 1; k <= 64; k++ {
		mset = append(mset, strconv.Itoa(k), strconv.Itoa(k*7919))
	}
	for _, args := range [][]string{{"GET", "17"}, {"SET", "17", "18446744073709551615"}, mset} {
		frame := encodeCommand(args...)
		for k := 1; k < len(frame); k++ {
			got, err := NewReader(&splitRead{data: frame, k: k}).ReadCommand()
			if err != nil {
				t.Fatalf("%s split at %d: %v", args[0], k, err)
			}
			if len(got) != len(args) {
				t.Fatalf("%s split at %d: %d args, want %d", args[0], k, len(got), len(args))
			}
			for i := range args {
				if string(got[i]) != args[i] {
					t.Fatalf("%s split at %d: arg %d = %q, want %q", args[0], k, i, got[i], args[i])
				}
			}
		}
	}
}

// TestBulkLargerThanBuffer: a bulk past the initial buffer grows it once,
// on the command path and the reply path.
func TestBulkLargerThanBuffer(t *testing.T) {
	big := strings.Repeat("v", 60<<10)
	args, err := NewReader(bytes.NewReader(encodeCommand("SET", "1", big))).ReadCommand()
	if err != nil || len(args) != 3 || string(args[2]) != big {
		t.Fatalf("60 KB bulk command: %d args, err %v", len(args), err)
	}
	var b bytes.Buffer
	w := NewWriter(&b)
	w.WriteBulkString(big)
	w.Flush()
	rep, err := NewReader(iotest.HalfReader(&b)).ReadReply()
	if err != nil || rep.Str != big {
		t.Fatalf("60 KB bulk reply: %d bytes, err %v", len(rep.Str), err)
	}
}

// TestOversizeBulkDoesNotGrow: a bulk header past MaxBulk fails before the
// buffer grows toward it.
func TestOversizeBulkDoesNotGrow(t *testing.T) {
	r := NewReader(strings.NewReader("*1\r\n$65537\r\n"))
	if _, err := r.ReadCommand(); !errors.Is(err, ErrBulkTooLarge) {
		t.Fatalf("err = %v, want ErrBulkTooLarge", err)
	}
	if len(r.buf) != bufSize {
		t.Fatalf("buffer grew to %d bytes", len(r.buf))
	}
}

// TestZeroPaddedHeaderDoesNotGrow: a length header that never ends, here
// an endless run of leading zeros, fails once it passes maxDigits, before
// the buffer grows, whether it arrives whole or a byte per Read. A header
// of exactly maxDigits digits still parses.
func TestZeroPaddedHeaderDoesNotGrow(t *testing.T) {
	zeros := func(n int) string { return strings.Repeat("0", n) }
	for _, tc := range []struct {
		name, prefix string
		reply        bool
	}{
		{"bulk header", "*1\r\n$", false},
		{"array header", "*", false},
		{"integer reply", ":", true},
		{"bulk reply", "$", true},
	} {
		for _, trickled := range []bool{false, true} {
			var in io.Reader = strings.NewReader(tc.prefix + zeros(1<<20))
			if trickled {
				in = iotest.OneByteReader(strings.NewReader(tc.prefix + zeros(64<<10)))
			}
			r := NewReader(in)
			var err error
			if tc.reply {
				_, err = r.ReadReply()
			} else {
				_, err = r.ReadCommand()
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s, trickled %v: err = %v, want ErrBadFrame", tc.name, trickled, err)
			}
			if len(r.buf) != bufSize {
				t.Errorf("%s, trickled %v: buffer grew to %d bytes", tc.name, trickled, len(r.buf))
			}
		}
	}
	args, err := NewReader(strings.NewReader("*1\r\n$" + zeros(maxDigits-1) + "4\r\nPING\r\n")).ReadCommand()
	if err != nil || len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("%d-digit header: %q, %v", maxDigits, args, err)
	}
}

// trickle serves one byte per Read and records, at every Read, where the
// frame's parse would resume.
type trickle struct {
	data   []byte
	r      *Reader
	resume []int
}

func (t *trickle) Read(p []byte) (int, error) {
	if len(t.data) == 0 {
		return 0, io.EOF
	}
	t.resume = append(t.resume, t.r.pos)
	p[0], t.data = t.data[0], t.data[1:]
	return 1, nil
}

// TestTrickledFrameResumes: a 1024-arg frame arriving a byte per Read
// decodes with one Read per byte, and the parse never restarts from the
// frame's start: the resume offset only moves forward, so each bulk is
// parsed once and the work is linear in the frame.
func TestTrickledFrameResumes(t *testing.T) {
	args := []string{"MGET"}
	for k := 1; k < MaxArgs; k++ {
		args = append(args, strconv.Itoa(k))
	}
	frame := encodeCommand(args...)
	tr := &trickle{data: frame}
	r := NewReader(tr)
	tr.r = r
	got, err := r.ReadCommand()
	if err != nil || len(got) != MaxArgs || string(got[MaxArgs-1]) != args[MaxArgs-1] {
		t.Fatalf("trickled frame: %d args, err %v", len(got), err)
	}
	if len(tr.resume) != len(frame) {
		t.Fatalf("%d reads for a %d-byte frame", len(tr.resume), len(frame))
	}
	for i := 1; i < len(tr.resume); i++ {
		if tr.resume[i] < tr.resume[i-1] {
			t.Fatalf("read %d: parse resumed at %d after %d", i, tr.resume[i], tr.resume[i-1])
		}
	}
	if last := tr.resume[len(tr.resume)-1]; last < len(frame)-16 {
		t.Fatalf("parse had reached only offset %d of %d before the last byte", last, len(frame))
	}
}

// TestReadReplyBulkAllocs: a bulk reply costs one allocation, its string.
func TestReadReplyBulkAllocs(t *testing.T) {
	r := NewReader(&loopReader{frame: []byte("$7\r\n1234567\r\n")})
	if n := testing.AllocsPerRun(200, func() {
		if rep, err := r.ReadReply(); err != nil || rep.Str != "1234567" {
			t.Fatalf("ReadReply = %+v, %v", rep, err)
		}
	}); n != 1 {
		t.Fatalf("ReadReply of a bulk allocates %.0f times, want 1", n)
	}
}

// countWriter records the size of every Write.
type countWriter struct{ writes []int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return len(p), nil
}

// TestWriterWritesThrough: a reply longer than the buffer bound leaves in
// pieces as it is encoded, each at most one element past the bound.
func TestWriterWritesThrough(t *testing.T) {
	var cw countWriter
	w := NewWriter(&cw)
	w.WriteArrayHeader(1000)
	for i := 0; i < 1000; i++ {
		w.WriteBulkUint(^uint64(0) - uint64(i))
	}
	if len(cw.writes) == 0 {
		t.Fatal("nothing written before Flush")
	}
	w.Flush()
	total := 0
	for _, n := range cw.writes {
		if n > bufSize+27 { // 27 bytes: the longest WriteBulkUint element
			t.Fatalf("one write of %d bytes", n)
		}
		total += n
	}
	if want := len("*1000\r\n") + 1000*len("$20\r\n18446744073709551615\r\n"); total != want {
		t.Fatalf("wrote %d bytes, want %d", total, want)
	}
}

// The GET/SET shapes of the pipelined workload: what the server decodes
// and encodes, and the client decodes, per operation.
var (
	getFrame = "*2\r\n$3\r\nGET\r\n$6\r\n123456\r\n"
	setFrame = "*3\r\n$3\r\nSET\r\n$6\r\n123456\r\n$20\r\n18446744073709551615\r\n"
	getReply = "*3\r\n$20\r\n18446744073709551615\r\n:2\r\n:123456789\r\n"
	setReply = "*2\r\n:2\r\n:123456789\r\n"
)

func BenchmarkReadCommand(b *testing.B) {
	r := NewReader(&loopReader{frame: []byte(strings.Repeat(getFrame, 4) + setFrame)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadCommand(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteReply(b *testing.B) {
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%5 == 4 {
			w.WriteArrayHeader(2)
			w.WriteUint(2)
			w.WriteUint(uint64(i))
		} else {
			w.WriteArrayHeader(3)
			w.WriteBulkUint(^uint64(0) - uint64(i))
			w.WriteUint(2)
			w.WriteUint(uint64(i))
		}
		if i%16 == 15 {
			w.Flush()
		}
	}
}

func BenchmarkReadReply(b *testing.B) {
	r := NewReader(&loopReader{frame: []byte(strings.Repeat(getReply, 4) + setReply)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadReply(); err != nil {
			b.Fatal(err)
		}
	}
}
