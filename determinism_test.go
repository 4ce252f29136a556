package tokentm

// Cross-run determinism: the simulator's contract is that one (workload,
// variant, scale, seed) tuple names exactly one execution. Before the
// TokenSet/sorted-walk fixes, token release and enemy enumeration iterated
// Go maps, so the order of simulated memory accesses — and through LRU
// state, evictions, and cycle totals — varied between identical runs. This
// test runs each case twice in-process and requires every observable to
// match exactly: headline cycles, full metrics, the commit-record stream,
// and each core's final clock.

import (
	"reflect"
	"testing"

	"tokentm/internal/workload"
)

// determinismScale is large enough to exercise evictions, aborts, and
// software release (the paths that used to depend on map order) while
// keeping the doubled runs quick.
const determinismScale = 0.02

func TestCrossRunDeterminism(t *testing.T) {
	cases := []struct {
		workload string
		variant  Variant
	}{
		// TokenTM with contention: software releases and abort unrolls.
		{"Vacation-High", VariantTokenTM},
		// Every commit walks the log: the release path dominates.
		{"Delaunay", VariantTokenTMNoFast},
		// The signature baseline: enemy enumeration over the TID-sorted
		// thread list.
		{"Genome", VariantLogTMSE4xH3},
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/"+string(tc.variant), func(t *testing.T) {
			spec, ok := workload.ByName(tc.workload)
			if !ok {
				t.Fatalf("unknown workload %q", tc.workload)
			}
			const seed = 7
			d1, sys1 := runWorkload(spec, tc.variant, determinismScale, seed)
			d2, sys2 := runWorkload(spec, tc.variant, determinismScale, seed)

			if d1.Cycles != d2.Cycles {
				t.Errorf("cycles differ across identical runs: %d vs %d", d1.Cycles, d2.Cycles)
			}
			if !reflect.DeepEqual(d1.Metrics, d2.Metrics) {
				t.Errorf("metrics differ across identical runs:\n  run1: %+v\n  run2: %+v", d1.Metrics, d2.Metrics)
			}
			if !reflect.DeepEqual(d1.Commits, d2.Commits) {
				t.Errorf("commit records differ across identical runs (%d vs %d records)", len(d1.Commits), len(d2.Commits))
			}
			ct1, ct2 := sys1.M.CoreTimes(), sys2.M.CoreTimes()
			if !reflect.DeepEqual(ct1, ct2) {
				for c := range ct1 {
					if ct1[c] != ct2[c] {
						t.Errorf("core %d clock differs: %d vs %d", c, ct1[c], ct2[c])
					}
				}
			}
			if d1.FastCommits != d2.FastCommits || d1.SlowCommits != d2.SlowCommits {
				t.Errorf("commit kinds differ: fast %d/%d slow %d/%d",
					d1.FastCommits, d2.FastCommits, d1.SlowCommits, d2.SlowCommits)
			}
		})
	}
}
