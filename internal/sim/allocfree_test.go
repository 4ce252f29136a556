package sim

// TestAllocFreeAnnotations cross-checks this package's //tokentm:allocfree
// annotations at runtime: the table's key set must equal the annotation
// list the static analyzer sees (lint.AllocFreeFuncs), and each entry must
// measure zero allocations per run on its steady-state path. The charge
// methods run on every simulated access, so an allocation here would both
// slow the sweep and (via GC timing) threaten nothing — but the lint
// contract says hot paths stay clean.

import (
	"slices"
	"sort"
	"testing"

	"tokentm/internal/attr"
	"tokentm/internal/lint"
)

func TestAllocFreeAnnotations(t *testing.T) {
	m := New(Config{Cores: 2})
	// A bare Ctx rig: charge only needs the thread's machine and core.
	tc := &Ctx{th: &Thread{m: m, core: m.cores[0]}}

	entries := []struct {
		name string
		fn   func()
	}{
		{"Machine.charge", func() {
			m.charge(0, attr.Barrier, 5)
			m.charge(1, attr.CtxSwitch, 2)
		}},
		{"Ctx.charge", func() {
			// Both routes: direct to the core, and into a pending frame.
			tc.pend = nil
			tc.charge(attr.Useful, 3)
			tc.pend = &tc.atomPend
			tc.charge(attr.Useful, 3)
			tc.charge(attr.Commit, 1) // not in-attempt: direct even with a frame
			tc.pend = nil
		}},
		{"Machine.refreshReady", func() {
			m.refreshReady(m.cores[0])
			m.refreshReady(m.cores[1])
		}},
		{"Machine.pickReadyCore", func() {
			m.setReadyKey(0, 9<<m.readyShift|0)
			m.setReadyKey(1, 3<<m.readyShift|1)
			if c := m.pickReadyCore(); c == nil || c.id != 1 {
				panic("pickReadyCore picked the wrong core")
			}
			m.setReadyKey(0, notReady)
			m.setReadyKey(1, notReady)
			if m.pickReadyCore() != nil {
				panic("pickReadyCore picked a core with nothing to run")
			}
		}},
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
			if n := testing.AllocsPerRun(100, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
		})
	}
}
