package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Verify is a cheap correctness gate with two halves.
//
// Identity: one (workload, variant, scale, seed) tuple names exactly one
// execution, so running the seedA job twice must produce byte-identical
// canonical JSON — cycles included. This is the cross-run determinism
// contract (DESIGN.md); a mismatch means some simulated-access order leaked
// in from an unordered source (Go map iteration is the classic culprit).
//
// Invariance: the same job at a second seed cross-checks the metrics that
// must be seed-invariant. Seeds only perturb backoffs and generator draws —
// every workload still commits the same number of transactions, and on
// TokenTM every commit takes exactly one of the two release paths:
//
//   - commit counts must match across seeds;
//   - fast + slow release commits must account for every commit (when the
//     variant splits them, i.e. the counts are nonzero);
//   - the cycle-attribution breakdown, when reported, must sum exactly to
//     the core clocks (no simulated cycle escapes classification);
//   - all runs must succeed (the RunFunc is expected to fold deeper
//     invariants, like TokenTM's token-bookkeeping balance, into its error).
//
// Every run is executed afresh, the repeated seed included: identity is
// what is being checked.
func (r *Runner) Verify(j Job, seedA, seedB int64) error {
	if seedA == seedB {
		return fmt.Errorf("harness: verify needs two distinct seeds, got %d twice", seedA)
	}
	ja, jb := j, j
	ja.Seed, jb.Seed = seedA, seedB
	var outs [3]Outcome
	for i, job := range []Job{ja, ja, jb} {
		out, errStr, _ := safeRun(r.Run, job)
		if errStr != "" {
			return fmt.Errorf("harness: verify %s: %s", job, errStr)
		}
		if split := out.FastCommits + out.SlowCommits; split != 0 && split != out.Commits {
			return fmt.Errorf("harness: verify %s: fast %d + slow %d != commits %d",
				job, out.FastCommits, out.SlowCommits, out.Commits)
		}
		// Cycle conservation: the attribution buckets must account for
		// every simulated cycle on every core (summation is
		// order-independent, so map iteration is safe here).
		if len(out.Breakdown) > 0 {
			var sum uint64
			for _, v := range out.Breakdown {
				sum += v
			}
			if sum != out.CoreCycleSum {
				return fmt.Errorf("harness: verify %s: breakdown buckets sum to %d cycles but core clocks sum to %d",
					job, sum, out.CoreCycleSum)
			}
		}
		outs[i] = out
	}
	b0, err := canonicalOutcome(outs[0])
	if err != nil {
		return fmt.Errorf("harness: verify %s: %w", ja, err)
	}
	b1, err := canonicalOutcome(outs[1])
	if err != nil {
		return fmt.Errorf("harness: verify %s: %w", ja, err)
	}
	if !bytes.Equal(b0, b1) {
		return fmt.Errorf("harness: verify %s: two identical runs diverged:\n  run1: %s\n  run2: %s",
			ja, b0, b1)
	}
	if outs[0].Commits != outs[2].Commits {
		return fmt.Errorf("harness: verify %s: commit count depends on seed (%d at seed %d, %d at seed %d)",
			j, outs[0].Commits, seedA, outs[2].Commits, seedB)
	}
	return nil
}

// canonicalOutcome renders an Outcome as canonical JSON bytes for identity
// comparison: encoding/json sorts map keys, so equal outcomes always encode
// equally.
func canonicalOutcome(o Outcome) ([]byte, error) {
	b, err := json.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("marshal outcome: %w", err)
	}
	return b, nil
}
