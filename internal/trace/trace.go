// Package trace records structured HTM events for debugging and analysis.
// A Tracer wraps any htm.System as a transparent decorator: every begin,
// access outcome, commit, abort and context switch is appended to a bounded
// ring buffer that can be dumped as text. cmd/tokentm-sim exposes it via
// the -trace flag.
package trace

import (
	"fmt"
	"io"

	"tokentm/internal/htm"
	"tokentm/internal/mem"
	"tokentm/internal/statehash"
)

// Kind classifies trace events.
type Kind int

// Event kinds.
const (
	EvBegin Kind = iota
	EvLoad
	EvStore
	EvConflict
	EvAbortSelf
	EvCommitFast
	EvCommitSlow
	EvAbort
	EvCtxSwitch
)

// hasAddr reports whether events of this kind carry a meaningful Addr.
// Address 0 is a legal block address, so presence is a property of the kind,
// not of the value.
func (k Kind) hasAddr() bool {
	switch k {
	case EvLoad, EvStore, EvConflict, EvAbortSelf:
		return true
	case EvBegin, EvCommitFast, EvCommitSlow, EvAbort, EvCtxSwitch:
		return false
	default:
		return false
	}
}

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvConflict:
		return "conflict"
	case EvAbortSelf:
		return "abort-self"
	case EvCommitFast:
		return "commit-fast"
	case EvCommitSlow:
		return "commit-slow"
	case EvAbort:
		return "abort"
	case EvCtxSwitch:
		return "ctx-switch"
	default:
		return "?"
	}
}

// Event is one recorded HTM event.
type Event struct {
	Seq     uint64
	Kind    Kind
	TID     mem.TID
	Core    int
	Addr    mem.Addr
	Latency mem.Cycle
	// Conflict classifies the conflict for EvConflict/EvAbortSelf events
	// (KindNone otherwise).
	Conflict htm.ConflictKind
	// Enemies lists conflicting TIDs for EvConflict.
	Enemies []mem.TID
}

// String renders the event as one line.
func (e Event) String() string {
	s := fmt.Sprintf("#%-6d %-11s tid=%-5d core=%-2d", e.Seq, e.Kind, e.TID, e.Core)
	if e.Kind.hasAddr() {
		s += fmt.Sprintf(" addr=%v", e.Addr)
	}
	if e.Latency > 0 {
		s += fmt.Sprintf(" lat=%d", e.Latency)
	}
	if e.Conflict != htm.KindNone {
		s += fmt.Sprintf(" conflict=%s", e.Conflict)
	}
	if len(e.Enemies) > 0 {
		s += fmt.Sprintf(" enemies=%v", e.Enemies)
	}
	return s
}

// Tracer is a bounded ring buffer of events.
//
// A Tracer is bound to exactly one simulated machine: it is not
// synchronized, and simulated machines are single-goroutine worlds, so
// sharing one Tracer between the machines of a parallel sweep would
// interleave unrelated event streams and race on the ring. Wrap enforces
// the contract by panicking when a Tracer is attached to a second system;
// build one Tracer per machine instead.
type Tracer struct {
	events []Event
	next   int
	seq    uint64
	full   bool
	bound  htm.System
}

// NewTracer returns a tracer keeping the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{events: make([]Event, capacity)}
}

// Record appends an event.
func (t *Tracer) Record(e Event) {
	e.Seq = t.seq
	t.seq++
	t.events[t.next] = e
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.full = true
	}
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t.full {
		return len(t.events)
	}
	return t.next
}

// Total returns the number of events ever recorded.
func (t *Tracer) Total() uint64 { return t.seq }

// Reset returns the tracer to its empty, unbound state so it can be reused
// with a new machine (e.g. across a harness retry of a failed job): events,
// sequence numbers and the machine binding are cleared; capacity is kept.
func (t *Tracer) Reset() {
	clear(t.events)
	t.next = 0
	t.seq = 0
	t.full = false
	t.bound = nil
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if !t.full {
		return append([]Event(nil), t.events[:t.next]...)
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Dump writes the retained events as text.
func (t *Tracer) Dump(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e.String())
	}
}

// System decorates an htm.System with tracing.
type System struct {
	inner  htm.System
	tracer *Tracer
}

var _ htm.System = (*System)(nil)

// Wrap returns sys decorated with tr. A Tracer observes exactly one
// machine's HTM: wrapping a second system with the same Tracer panics (see
// the Tracer contract).
func Wrap(sys htm.System, tr *Tracer) *System {
	if tr.bound != nil && tr.bound != sys {
		panic("trace: Tracer already bound to another htm.System; use one Tracer per machine")
	}
	tr.bound = sys
	return &System{inner: sys, tracer: tr}
}

// Name returns the wrapped variant's name.
func (s *System) Name() string { return s.inner.Name() }

// FingerprintTo forwards to the wrapped system when it participates in
// machine fingerprinting, so tracing a machine never changes its state hash.
func (s *System) FingerprintTo(h *statehash.Hash) {
	if f, ok := s.inner.(htm.Fingerprinter); ok {
		f.FingerprintTo(h)
	}
}

// Stats exposes the wrapped variant's metrics.
func (s *System) Stats() *htm.Metrics { return s.inner.Stats() }

// Register forwards registration.
func (s *System) Register(th *htm.Thread) { s.inner.Register(th) }

// RunningOn forwards the running-thread notification.
func (s *System) RunningOn(core int, th *htm.Thread) { s.inner.RunningOn(core, th) }

// Begin traces a transaction begin.
func (s *System) Begin(th *htm.Thread, now mem.Cycle) mem.Cycle {
	lat := s.inner.Begin(th, now)
	s.tracer.Record(Event{Kind: EvBegin, TID: th.TID, Core: th.Core, Latency: lat})
	return lat
}

func tids(xs []*htm.Xact) []mem.TID {
	var out []mem.TID
	for _, x := range xs {
		out = append(out, x.TID)
	}
	return out
}

// Load traces a load and its outcome.
func (s *System) Load(th *htm.Thread, addr mem.Addr, retries int) (uint64, htm.Access) {
	v, acc := s.inner.Load(th, addr, retries)
	s.record(EvLoad, th, addr, acc)
	return v, acc
}

// Store traces a store and its outcome.
func (s *System) Store(th *htm.Thread, addr mem.Addr, val uint64, retries int) htm.Access {
	acc := s.inner.Store(th, addr, val, retries)
	s.record(EvStore, th, addr, acc)
	return acc
}

func (s *System) record(kind Kind, th *htm.Thread, addr mem.Addr, acc htm.Access) {
	switch acc.Outcome {
	case htm.OK:
		s.tracer.Record(Event{Kind: kind, TID: th.TID, Core: th.Core, Addr: addr, Latency: acc.Latency})
	case htm.Stall:
		s.tracer.Record(Event{Kind: EvConflict, TID: th.TID, Core: th.Core, Addr: addr, Latency: acc.Latency, Conflict: acc.Kind, Enemies: tids(acc.Enemies)})
	case htm.AbortSelf:
		s.tracer.Record(Event{Kind: EvAbortSelf, TID: th.TID, Core: th.Core, Addr: addr, Conflict: acc.Kind})
	}
}

// Commit traces a commit, distinguishing fast and software release.
func (s *System) Commit(th *htm.Thread) (mem.Cycle, bool) {
	lat, fast := s.inner.Commit(th)
	kind := EvCommitSlow
	if fast {
		kind = EvCommitFast
	}
	s.tracer.Record(Event{Kind: kind, TID: th.TID, Core: th.Core, Latency: lat})
	return lat, fast
}

// Abort traces an abort.
func (s *System) Abort(th *htm.Thread) mem.Cycle {
	lat := s.inner.Abort(th)
	s.tracer.Record(Event{Kind: EvAbort, TID: th.TID, Core: th.Core, Latency: lat})
	return lat
}

// ContextSwitch traces a context switch.
func (s *System) ContextSwitch(core int, out, in *htm.Thread) mem.Cycle {
	lat := s.inner.ContextSwitch(core, out, in)
	e := Event{Kind: EvCtxSwitch, Core: core, Latency: lat}
	if in != nil {
		e.TID = in.TID
	}
	s.tracer.Record(e)
	return lat
}
