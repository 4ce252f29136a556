package main

import (
	"math"
	"testing"
)

// TestCheckFlags: flags that would run nothing, panic or silently run at
// full scale are rejected before any work starts.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		run   string
		seeds int
		scale float64
		ok    bool
	}{
		{"all", 3, 0.05, true},
		{"table2,table3,table4", 1, 1, true},
		{" fig1 , fig5 ", 2, 0.01, true},
		{"fig6", 3, 0.05, false},
		{"fig1,", 3, 0.05, false},
		{"", 3, 0.05, false},
		{"verify", 2, 0.05, false}, // removed: the scheduler goldens are the determinism gate
		{"table5", 0, 0.05, false},
		{"table5", -1, 0.05, false},
		{"table5", 2, 0, false},
		{"table5", 2, -0.5, false},
		{"table5", 2, 1.5, false},
		{"table5", 2, math.NaN(), false},
	} {
		want, err := checkFlags(c.run, c.seeds, c.scale)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(%q, %d, %g) error = %v, want ok=%v", c.run, c.seeds, c.scale, err, c.ok)
		}
		if err == nil && len(want) == 0 {
			t.Errorf("checkFlags(%q, %d, %g) selected nothing", c.run, c.seeds, c.scale)
		}
	}
}
