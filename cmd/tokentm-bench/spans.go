package main

import (
	"encoding/json"
	"os"
	"time"

	"tokentm/stm/kvstore"
)

// Spans are recorded by the benchmark around its own calls into each layer
// (spans inside the program are a later change). Each tracer belongs to one
// goroutine, holds its spans in memory, and is merged and written as JSON
// when the traced run ends. End-to-end numbers never come from a traced run.

// span is one timed interval. Parent is the index of the causing span in
// the same tracer (-1 for a request root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

// Sampling keeps a traced window's span file in the tens of megabytes.
const (
	txnSpanEvery  = 64 // in process: 1 transaction in 64 gets child spans
	wireSpanEvery = 16 // on the wire: 1 request in 16 gets client spans
	maxSpans      = 1 << 20
)

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, or -1 once the tracer is full.
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// add records an interval that was timed elsewhere (a conn's Read calls).
func (t *tracer) add(name string, parent int32, req uint64, start, end time.Time) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Req: req})
	}
}

// truncate drops spans opened at or after mark: an aborted transaction
// attempt's children, so only the committed attempt's accesses remain.
func (t *tracer) truncate(mark int) { t.spans = t.spans[:mark] }

// spanStat aggregates one span name.
type spanStat struct {
	Count  int
	Total  int64 // summed duration, ns
	Self   int64 // summed self time: duration minus what child spans cover
	Begin  int64 // summed (first child start - span start), spans with children
	Finish int64 // summed (span end - last child end), spans with children
	Kids   int64 // child spans of spans with children
}

// spanStats computes per-name totals. A span's self time is its duration
// minus the part of it its direct children cover; children of one parent do
// not overlap here (each tracer is single-goroutine), so that is a sum.
func spanStats(spans []span) map[string]*spanStat {
	type edge struct{ first, last, covered, n int64 }
	edges := make(map[int32]*edge)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		e := edges[s.Parent]
		if e == nil {
			e = &edge{first: s.Start, last: s.End}
			edges[s.Parent] = e
		}
		if s.Start < e.first {
			e.first = s.Start
		}
		if s.End > e.last {
			e.last = s.End
		}
		e.covered += s.End - s.Start
		e.n++
	}
	out := make(map[string]*spanStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d
		if e := edges[int32(i)]; e != nil {
			st.Self -= e.covered
			st.Begin += e.first - s.Start
			st.Finish += s.End - e.last
			st.Kids += e.n
		}
	}
	return out
}

// spanFile is what -out receives: every workload's spans, tracer by tracer
// (parent indices are tracer-local).
type spanFile struct {
	Schema    string        `json:"schema"`
	Workloads []spanSection `json:"workloads"`
}

type spanSection struct {
	Workload string   `json:"workload"`
	Tracers  [][]span `json:"tracers"`
}

func writeSpanFile(path string, f spanFile) error {
	f.Schema = "tokentm-bench-spans/v1"
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedTx wraps a kvstore.Tx so each access is a child span of the
// enclosing kvstore.Handle.Txn span.
type tracedTx struct {
	tx     kvstore.Tx
	tr     *tracer
	parent int32
	req    uint64
}

func (t *tracedTx) Get(key uint64) (uint64, bool) {
	id := t.tr.begin("tx.Get", t.parent, t.req)
	v, ok := t.tx.Get(key)
	t.tr.end(id)
	return v, ok
}

func (t *tracedTx) Put(key, val uint64) {
	id := t.tr.begin("tx.Put", t.parent, t.req)
	t.tx.Put(key, val)
	t.tr.end(id)
}

// traced opens a kvstore.Handle.Txn span and returns it with fn wrapped so
// that each access becomes a child span (fn itself once the tracer is full).
// begin (first child start - span start) is transaction start plus any
// aborted attempts; finish (span end - last child end) is commit and token
// release.
func (a *applier) traced(fn func(kvstore.Tx) error) (int32, func(kvstore.Tx) error) {
	if a.wrap == nil {
		a.wrap = func(tx kvstore.Tx) error {
			a.tr.truncate(int(a.ttx.parent) + 1)
			a.ttx.tx = tx
			return a.inner(&a.ttx)
		}
	}
	id := a.tr.begin("kvstore.Handle.Txn", -1, a.txSeq)
	if id < 0 {
		return id, fn
	}
	a.inner = fn
	a.ttx.tr, a.ttx.req, a.ttx.parent = a.tr, a.txSeq, id
	return id, a.wrap
}
