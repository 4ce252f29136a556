package attr

// TestAllocFreeAnnotations is this package's allocation guard: each row
// drives one of the cycle-attribution helpers the simulator calls on every
// access and must measure zero allocations per run.

import "testing"

func TestAllocFreeAnnotations(t *testing.T) {
	var b, o Breakdown
	o.Charge(Useful, 1)
	var sink bool

	entries := []struct {
		name string
		fn   func()
	}{
		{"Breakdown.Charge", func() {
			for _, k := range []Bucket{Useful, ReadStall, Wasted, CtxSwitch} {
				b.Charge(k, 3)
			}
		}},
		{"Breakdown.Get", func() {
			if b.Get(Useful) == 0 {
				t.Fatal("Useful should hold cycles")
			}
		}},
		{"Breakdown.Total", func() {
			if b.Total() == 0 {
				t.Fatal("total should be nonzero")
			}
		}},
		{"Breakdown.Merge", func() { b.Merge(&o) }},
		{"Breakdown.Reset", func() {
			b.Reset()
			b.Charge(Useful, 5)
		}},
		{"Bucket.InAttempt", func() { sink = Useful.InAttempt() && !Commit.InAttempt() && !(NumBuckets + 1).InAttempt() }},
	}

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				e.fn()
			}
			if n := testing.AllocsPerRun(100, e.fn); n != 0 {
				t.Errorf("%s allocates %.0f times per run; want 0", e.name, n)
			}
		})
	}
	_ = sink
}
