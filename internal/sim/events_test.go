package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"tokentm/internal/mem"
)

// TestReadyTreeMatchesLinearMin drives random refreshReady sequences and
// checks after each that pickReadyCore returns the linear min-(ready time,
// core id) over every core, or nil when no core can run. Core counts cover
// a single leaf, powers of two and padded trees; times are drawn from a
// small range so ties between cores are common.
func TestReadyTreeMatchesLinearMin(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 32, 33} {
		t.Run(fmt.Sprint(cores), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cores)))
			m := New(Config{Cores: cores})
			running := &Thread{} // any current thread makes a core ready at its clock
			for step := 0; step < 5000; step++ {
				c := m.cores[rng.Intn(cores)]
				if rng.Intn(4) == 0 {
					c.cur = nil
				} else {
					c.cur = running
					c.time = mem.Cycle(rng.Intn(8))
				}
				m.refreshReady(c)

				var want *coreState
				for _, o := range m.cores {
					if o.cur != nil && (want == nil || o.time < want.time) {
						want = o
					}
				}
				if got := m.pickReadyCore(); got != want {
					t.Fatalf("step %d: picked %v, want %v", step, coreID(got), coreID(want))
				}
			}
		})
	}
}

func coreID(c *coreState) any {
	if c == nil {
		return nil
	}
	return c.id
}
