package trace

import (
	"bytes"
	"strings"
	"testing"

	"tokentm/internal/core"
	"tokentm/internal/mem"
	"tokentm/internal/sim"
)

func TestRingBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(Event{Kind: EvLoad, TID: mem.TID(i)})
	}
	if tr.Len() != 4 || tr.Total() != 6 {
		t.Fatalf("len=%d total=%d", tr.Len(), tr.Total())
	}
	evs := tr.Events()
	// Oldest retained is seq 2.
	if evs[0].Seq != 2 || evs[3].Seq != 5 {
		t.Fatalf("ring order: %+v", evs)
	}
	// Address 0 is a legal block address: a load there still prints it,
	// because presence is a property of the kind, not of the value.
	if s := evs[0].String(); !strings.Contains(s, " addr=0x0") {
		t.Fatalf("load at address 0 lost its addr: %q", s)
	}
	// Unfilled tracer.
	tr2 := NewTracer(8)
	tr2.Record(Event{Kind: EvBegin})
	if tr2.Len() != 1 || tr2.Events()[0].Seq != 0 {
		t.Fatal("partial ring")
	}
	if s := tr2.Events()[0].String(); strings.Contains(s, "addr=") {
		t.Fatalf("begin printed an addr: %q", s)
	}
	// Default capacity.
	if NewTracer(0).Len() != 0 {
		t.Fatal("default tracer")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{EvBegin, EvLoad, EvStore, EvConflict, EvAbortSelf, EvCommitFast, EvCommitSlow, EvAbort, EvCtxSwitch, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty name for %d", int(k))
		}
	}
	if Kind(99).String() != "?" {
		t.Fatal("unknown kind")
	}
}

// TestWrappedSystemEndToEnd runs a real simulation through the tracing
// decorator and checks the event stream tells the story.
func TestWrappedSystemEndToEnd(t *testing.T) {
	m := sim.New(sim.Config{Cores: 2, Seed: 3})
	tr := NewTracer(4096)
	m.SetHTM(Wrap(core.New(m.Mem, m.Store), tr))
	const a mem.Addr = 0x1000
	for i := 0; i < 2; i++ {
		m.Spawn(func(tc *sim.Ctx) {
			for k := 0; k < 10; k++ {
				tc.Atomic(func(tx *sim.Tx) {
					tx.Store(a, tx.Load(a)+1)
					tx.Work(300)
				})
			}
		})
	}
	m.Run()
	if m.Store.Load(a) != 20 {
		t.Fatalf("traced run broke semantics: %d", m.Store.Load(a))
	}

	counts := map[Kind]int{}
	for _, e := range tr.Events() {
		counts[e.Kind]++
	}
	if counts[EvBegin] < 20 || counts[EvCommitFast] != 20 {
		t.Fatalf("begin/commit counts: %v", counts)
	}
	if counts[EvLoad] == 0 || counts[EvStore] == 0 {
		t.Fatalf("access events missing: %v", counts)
	}
	// Contended increments should show at least one conflict or abort.
	if counts[EvConflict]+counts[EvAbort] == 0 {
		t.Fatalf("no contention events: %v", counts)
	}

	var buf bytes.Buffer
	tr.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"begin", "commit-fast", "tid="} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q", want)
		}
	}
}

func TestDecoratorTransparency(t *testing.T) {
	m := sim.New(sim.Config{Cores: 1})
	inner := core.New(m.Mem, m.Store)
	w := Wrap(inner, NewTracer(16))
	if w.Name() != inner.Name() || w.Stats() != inner.Stats() {
		t.Fatal("decorator must be transparent")
	}
	if lat := w.ContextSwitch(0, nil, nil); lat == 0 {
		t.Fatal("context switch latency")
	}
}

// TestTracerBoundToOneMachine pins the contract the parallel sweep harness
// depends on: a Tracer observes exactly one machine's HTM, so event rings
// from concurrent machines can never interleave.
func TestTracerBoundToOneMachine(t *testing.T) {
	m1 := sim.New(sim.Config{Cores: 1})
	m2 := sim.New(sim.Config{Cores: 1})
	tr := NewTracer(16)
	sys1 := core.New(m1.Mem, m1.Store)
	Wrap(sys1, tr)

	// Re-wrapping the same system is idempotent and allowed.
	Wrap(sys1, tr)

	// Wrapping a second machine's system with the same Tracer panics.
	defer func() {
		if recover() == nil {
			t.Fatal("wrapping a second system with a bound Tracer must panic")
		}
	}()
	Wrap(core.New(m2.Mem, m2.Store), tr)
}

// TestTracerReset pins the reuse path: Reset returns a bound, full tracer
// to its empty state, after which it can legally wrap a different machine's
// system (the thing Wrap's binding check forbids without Reset).
func TestTracerReset(t *testing.T) {
	run := func(tr *Tracer) uint64 {
		m := sim.New(sim.Config{Cores: 1})
		m.SetHTM(Wrap(core.New(m.Mem, m.Store), tr))
		m.Spawn(func(tc *sim.Ctx) {
			tc.Atomic(func(tx *sim.Tx) {
				tx.Store(0x40, tx.Load(0x40)+1)
			})
		})
		m.Run()
		return m.Store.Load(0x40)
	}

	tr := NewTracer(8)
	if got := run(tr); got != 1 {
		t.Fatalf("first machine: counter = %d", got)
	}
	if tr.Total() == 0 {
		t.Fatal("first machine recorded nothing")
	}

	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 {
		t.Fatalf("after Reset: len=%d total=%d, want 0/0", tr.Len(), tr.Total())
	}

	// Without Reset this second Wrap would panic (TestTracerBoundToOneMachine).
	if got := run(tr); got != 1 {
		t.Fatalf("second machine: counter = %d", got)
	}
	evs := tr.Events()
	if len(evs) == 0 || evs[0].Seq != 0 {
		t.Fatalf("second machine's events must restart at seq 0: %+v", evs)
	}
}
