package main

import (
	"io"
	"strings"
	"testing"
)

// TestExitStatus: a clean exploration exits 0, the seeded skip-log-credit
// bug is found (exit 1), and input that would panic, explore nothing or
// report a false livelock is a usage error (exit 2) before any work.
func TestExitStatus(t *testing.T) {
	cell := []string{"-program", "incr-cross", "-max-schedules", "50"}
	for _, c := range []struct {
		args []string
		want int
	}{
		{cell, 0},
		{append(cell, "-mutation", "skip-log-credit"), 1},
		{[]string{"-variant", "nope"}, 2},
		{[]string{"-max-schedules", "0"}, 2},
		{[]string{"-max-schedules", "-1"}, 2},
		{[]string{"-max-steps", "0"}, 2},
		{[]string{"-preempts", "-1"}, 2},
		{[]string{"-bounces", "-1"}, 2},
		{[]string{"-branch-depth", "-1"}, 2},
		{[]string{"-program", "nope"}, 2},
		{[]string{"-mutation", "nope"}, 2},
		{[]string{"extra"}, 2},
	} {
		var out strings.Builder
		if got := run(c.args, &out, io.Discard); got != c.want {
			t.Errorf("run(%q) = %d, want %d; output:\n%s", c.args, got, c.want, out.String())
		}
	}
}
