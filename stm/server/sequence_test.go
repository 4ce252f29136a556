package server

// FuzzCommandSequence turns its input into one pipelined batch of GET, SET,
// MGET, MSET, MULTI, EXEC and DISCARD, with bad-arity, bad-key, bad-int and
// not-allowed-in-MULTI commands mixed in, serves the batch through a
// codec-only conn, and checks every reply against a reference map: values,
// shards, the shape of each serial vector, QUEUED, EXECABORT, the nested-MULTI
// error and EXEC/DISCARD without MULTI.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"tokentm/stm/resp"
)

// seqKeys is the key range the fuzzer draws from, 1..seqKeys: small, so
// commands keep hitting the same keys.
const seqKeys = 16

// Marker reply types for what the model cannot know exactly: a commit
// serial (Int 1 if the command wrote, so its serial must exceed every one
// before it) and a serial vector (Elems' Ints mark the touched shards).
const (
	wantSerial  = 'S'
	wantSerials = 'V'
)

// seqModel is the reference: the map, the MULTI state and the queue, and
// the replies the commands so far must get.
type seqModel struct {
	shardOf  func(uint64) int
	shards   int
	m        map[uint64]uint64
	inMulti  bool
	poisoned bool
	queue    [][]string
	queued   int // keys in queue
	args     [][]string
	want     []resp.Reply
}

// seqInput reads the fuzz bytes, and zeros once they run out.
type seqInput struct {
	b []byte
	i int
}

func (in *seqInput) next() byte {
	if in.i == len(in.b) {
		return 0
	}
	in.i++
	return in.b[in.i-1]
}

func (in *seqInput) key() string { return strconv.Itoa(1 + int(in.next())%seqKeys) }

// val spreads a byte over the whole uint64 range, 0 and 2^64-1 included.
func (in *seqInput) val() string {
	return strconv.FormatUint(uint64(in.next())*0x0101010101010101, 10)
}

// command draws one command from in and records its expected reply.
func (m *seqModel) command(in *seqInput) {
	b := in.next()
	var args []string
	switch b % 11 {
	case 0:
		args = []string{"GET", in.key()}
	case 1:
		args = []string{"SET", in.key(), in.val()}
	case 2:
		args = []string{"MGET"}
		for n := 1 + in.next()%8; n > 0; n-- {
			args = append(args, in.key())
		}
	case 3:
		args = []string{"MSET"}
		for n := 1 + in.next()%4; n > 0; n-- {
			args = append(args, in.key(), in.val())
		}
	case 4:
		args = []string{"MULTI"}
	case 5:
		args = []string{"EXEC"}
	case 6:
		args = []string{"DISCARD"}
	case 7: // wrong arity, nothing else wrong
		args = [][]string{
			{"GET"}, {"GET", "1", "2"}, {"SET", "1"}, {"MGET"}, {"MSET", "1", "2", "3"},
		}[in.next()%5]
	case 8: // one bad key
		args = [][]string{
			{"GET", "0"}, {"GET", "k"}, {"SET", "0", "5"}, {"MGET", "1", "0"}, {"MSET", "1", "2", "-1", "3"},
		}[in.next()%5]
	case 9: // one bad value
		args = [][]string{{"SET", "1", "-3"}, {"MSET", "1", "2", "3", "x"}}[in.next()%2]
	case 10: // not allowed in MULTI
		args = [][]string{{"PING"}, {"NOSUCH", "1"}}[in.next()%2]
	}
	m.want = append(m.want, m.reply(args))
	if b/11%2 == 1 {
		args = append([]string{strings.ToLower(args[0])}, args[1:]...)
	}
	m.args = append(m.args, args)
}

func errReply(s string) resp.Reply { return resp.Reply{Type: '-', Str: s} }

func okReply(s string) resp.Reply { return resp.Reply{Type: '+', Str: s} }

// reply returns what the server must answer to args and steps the model.
func (m *seqModel) reply(args []string) resp.Reply {
	name := args[0]
	if m.inMulti {
		switch name {
		case "MULTI":
			return errReply("ERR MULTI calls can not be nested")
		case "EXEC":
			m.inMulti = false
			if m.poisoned {
				return errReply("EXECABORT transaction discarded because of previous errors")
			}
			return m.exec()
		case "DISCARD":
			m.inMulti = false
			return okReply("OK")
		case "GET", "SET", "MGET", "MSET":
			if e, bad := m.invalid(args, "queued command"); bad {
				m.poisoned = true
				return e
			}
			n := keysOf(args)
			if m.queued+n > maxQueuedKeys {
				m.poisoned = true
				return errReply("ERR MULTI queue full")
			}
			m.queued += n
			m.queue = append(m.queue, args)
			return okReply("QUEUED")
		}
		m.poisoned = true
		return errReply("ERR command not allowed in MULTI")
	}
	switch name {
	case "MULTI":
		m.inMulti, m.poisoned, m.queue, m.queued = true, false, m.queue[:0], 0
		return okReply("OK")
	case "EXEC", "DISCARD":
		return errReply("ERR " + name + " without MULTI")
	case "PING":
		return okReply("PONG")
	case "GET", "SET", "MGET", "MSET":
		if e, bad := m.invalid(args, name); bad {
			return e
		}
		touched := make([]bool, m.shards)
		res, wrote := m.apply(args, touched)
		k, _ := strconv.ParseUint(args[1], 10, 64)
		shard := resp.Reply{Type: ':', Int: int64(m.shardOf(k))}
		switch name {
		case "GET":
			return resp.Reply{Type: '*', Elems: []resp.Reply{res, shard, serialReply(k, false, !res.Null)}}
		case "SET":
			return resp.Reply{Type: '*', Elems: []resp.Reply{shard, serialReply(k, true, false)}}
		case "MGET":
			return resp.Reply{Type: '*', Elems: []resp.Reply{res, serialsReply(touched, wrote)}}
		}
		pairs := resp.Reply{Type: ':', Int: int64(len(args) / 2)}
		return resp.Reply{Type: '*', Elems: []resp.Reply{pairs, serialsReply(touched, wrote)}}
	}
	return errReply("ERR unknown command")
}

// invalid reports the error a malformed GET/SET/MGET/MSET gets; the
// generator puts at most one fault in a command.
func (m *seqModel) invalid(args []string, arityName string) (resp.Reply, bool) {
	n := len(args)
	switch args[0] {
	case "GET":
		if n != 2 {
			return errReply("ERR wrong number of arguments for " + arityName), true
		}
	case "SET":
		if n != 3 {
			return errReply("ERR wrong number of arguments for " + arityName), true
		}
	case "MGET":
		if n < 2 {
			return errReply("ERR wrong number of arguments for " + arityName), true
		}
	case "MSET":
		if n < 3 || n%2 != 1 {
			return errReply("ERR wrong number of arguments for " + arityName), true
		}
	}
	for i := 1; i < n; i++ {
		isVal := (args[0] == "SET" || args[0] == "MSET") && i%2 == 0
		v, err := strconv.ParseUint(args[i], 10, 64)
		switch {
		case err != nil && isVal:
			return errReply("ERR value is not a decimal uint64"), true
		case !isVal && (err != nil || v == 0):
			return errReply("ERR key must be a decimal integer >= 1"), true
		}
	}
	return resp.Reply{}, false
}

// keysOf counts the keys of a well-formed GET/SET/MGET/MSET.
func keysOf(args []string) int {
	if args[0] == "SET" || args[0] == "MSET" {
		return len(args) / 2
	}
	return len(args) - 1
}

// apply runs one well-formed GET/SET/MGET/MSET on the map, marking the
// shards it touches, and returns its value reply (GET, MGET) and whether it
// wrote.
func (m *seqModel) apply(args []string, touched []bool) (resp.Reply, bool) {
	var keys, vals []uint64
	for _, a := range args[1:] {
		v, _ := strconv.ParseUint(a, 10, 64)
		if args[0] == "SET" || args[0] == "MSET" {
			if len(keys) == len(vals) {
				keys = append(keys, v)
			} else {
				vals = append(vals, v)
			}
		} else {
			keys = append(keys, v)
		}
	}
	var got []resp.Reply
	for i, k := range keys {
		touched[m.shardOf(k)] = true
		if vals != nil {
			m.m[k] = vals[i]
			continue
		}
		if v, ok := m.m[k]; ok {
			got = append(got, resp.Reply{Type: '$', Str: strconv.FormatUint(v, 10)})
		} else {
			got = append(got, resp.Reply{Type: '$', Null: true})
		}
	}
	switch args[0] {
	case "GET":
		return got[0], false
	case "MGET":
		return resp.Reply{Type: '*', Elems: got}, false
	}
	return okReply("OK"), true
}

// exec runs the queue as one transaction of the model.
func (m *seqModel) exec() resp.Reply {
	touched := make([]bool, m.shards)
	results := resp.Reply{Type: '*', Elems: []resp.Reply{}}
	var wrote bool
	for _, args := range m.queue {
		res, w := m.apply(args, touched)
		results.Elems = append(results.Elems, res)
		wrote = wrote || w
	}
	m.queue = m.queue[:0]
	return resp.Reply{Type: '*', Elems: []resp.Reply{results, serialsReply(touched, wrote)}}
}

// serialReply marks the serial of a SET (wrote) or of a GET that found its
// key or not.
func serialReply(key uint64, wrote, found bool) resp.Reply {
	r := resp.Reply{Type: wantSerial, Int: int64(key), Null: !found}
	if wrote {
		r.Str = "w"
	}
	return r
}

func serialsReply(touched []bool, wrote bool) resp.Reply {
	r := resp.Reply{Type: wantSerials, Elems: make([]resp.Reply, len(touched))}
	for i, t := range touched {
		if t {
			r.Elems[i].Int = 1
		}
	}
	if wrote {
		r.Str = "w"
	}
	return r
}

// serialChecker holds the clock, the highest serial seen, and the serial of
// each key's last SET. A write's serial is past every earlier one and a
// transaction's never goes back. A GET reads a block's stamp: no later than
// the clock, and for a key it finds, no earlier than the key's last SET.
type serialChecker struct {
	last uint64
	set  map[uint64]uint64
}

func (s *serialChecker) check(got uint64, wrote bool) error {
	if got < s.last || (wrote && got == s.last) {
		return fmt.Errorf("serial %d after %d (write %v)", got, s.last, wrote)
	}
	s.last = got
	return nil
}

// match compares a reply with its expectation, checking serial markers
// against sc.
func match(got, want resp.Reply, sc *serialChecker) error {
	switch want.Type {
	case wantSerial:
		if got.Type != ':' || got.Int < 0 {
			return fmt.Errorf("got %+v, want a serial", got)
		}
		serial, key := uint64(got.Int), uint64(want.Int)
		if want.Str == "w" {
			sc.set[key] = serial
			return sc.check(serial, true)
		}
		if serial > sc.last || (!want.Null && serial < sc.set[key]) {
			return fmt.Errorf("GET %d read at serial %d: clock %d, its last SET %d", key, serial, sc.last, sc.set[key])
		}
		return nil
	case wantSerials:
		if got.Type != '*' || len(got.Elems) != len(want.Elems) {
			return fmt.Errorf("got %+v, want a %d-wide serial vector", got, len(want.Elems))
		}
		// Before any commit the clock reads 0, and so may a read's serial.
		wrote := want.Str == "w"
		exact := wrote || sc.last > 0
		var serial uint64
		for i, e := range got.Elems {
			touched := want.Elems[i].Int == 1
			if e.Type != ':' || (e.Int != 0 && !touched) || (e.Int == 0 && touched && exact) {
				return fmt.Errorf("serial vector %+v, want shards %+v touched", got.Elems, want.Elems)
			}
			if e.Int != 0 {
				if serial != 0 && uint64(e.Int) != serial {
					return fmt.Errorf("serial vector %+v has two serials", got.Elems)
				}
				serial = uint64(e.Int)
			}
		}
		if serial == 0 && wrote {
			return fmt.Errorf("serial vector %+v of a write is all zero", got.Elems)
		}
		if serial != 0 {
			return sc.check(serial, wrote)
		}
		return nil
	}
	if got.Type != want.Type || got.Str != want.Str || got.Null != want.Null || got.Int != want.Int ||
		len(got.Elems) != len(want.Elems) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	for i := range want.Elems {
		if err := match(got.Elems[i], want.Elems[i], sc); err != nil {
			return err
		}
	}
	return nil
}

func FuzzCommandSequence(f *testing.F) {
	// A command is an op byte (op%11; op/11 odd sends it in lower case)
	// and its argument bytes; see seqModel.command.
	const refusals = "\x07\x00\x07\x01\x07\x02\x07\x03\x07\x04" + // each bad arity
		"\x08\x00\x08\x01\x08\x02\x08\x03\x08\x04" + // each bad key
		"\x09\x00\x09\x01\x0a\x00\x0a\x01" // each bad value, PING, NOSUCH
	for _, seed := range []string{
		"\x01\x01\x07\x00\x01\x00\x02", // SET 2, GET 2, GET 3 (absent)
		// MULTI, SET 4, GET 4, MGET 2 4 6, MSET 2 3, EXEC
		"\x04\x01\x03\x07\x00\x03\x02\x02\x01\x03\x05\x03\x01\x01\x02\x02\x03\x05",
		"\x04\x04\x01\x01\x01\x08\x00\x05",     // MULTI, nested MULTI, SET, GET 0, EXECABORT
		"\x05\x06\x04\x06\x02\x00\x01",         // EXEC and DISCARD without MULTI; MULTI DISCARD; MGET 2
		"\x04\x03\x00\x01\x05\x06\x02\x00\x01", // MULTI, MSET 2, DISCARD, MGET 2 (absent)
		refusals,                               // outside MULTI
		"\x04" + refusals + "\x05\x04\x05",     // inside MULTI, EXECABORT, then an empty EXEC
		"\x0c\x01\x01\x0f\x0b\x01\x10",         // set 2, multi, get 2, exec
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(Config{Shards: 4, Capacity: 1 << 10, MaxConns: 1})
		if err != nil {
			t.Fatal(err)
		}
		model := &seqModel{shardOf: s.store.ShardOf, shards: s.store.NumShards(), m: map[uint64]uint64{}}
		in := &seqInput{b: data}
		for in.i < len(in.b) {
			model.command(in)
		}
		var batch, out bytes.Buffer
		w := resp.NewWriter(&batch)
		for _, args := range model.args {
			w.WriteCommand(args...)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		newConn(s, readDiscard{&batch, &out}, nil, 0).serve()

		r := resp.NewReader(&out)
		sc := serialChecker{set: map[uint64]uint64{}}
		for i, want := range model.want {
			got, err := r.ReadReply()
			if err != nil {
				t.Fatalf("command %d %q: %v", i, model.args[i], err)
			}
			if err := match(got, want, &sc); err != nil {
				t.Fatalf("command %d %q: %v", i, model.args[i], err)
			}
		}
		if rep, err := r.ReadReply(); err != io.EOF {
			t.Fatalf("a reply past the last command: %+v, %v", rep, err)
		}
	})
}
