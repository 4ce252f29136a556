// Package attr attributes simulated cycles to execution-time categories,
// reproducing the stacked breakdowns of the paper's Figures 7–9: every cycle
// a core clock advances is charged to exactly one Bucket, and the per-core
// sums must equal the core clocks (sim.Machine.CheckConservation), so an
// unclassified cycle is a loud failure rather than a silent lie.
//
// The accumulator is a fixed array indexed by Bucket: charging is a single
// add with no allocation and no map, so attribution is always on and cannot
// perturb the determinism contract.
package attr

import (
	"tokentm/internal/mem"
)

// Bucket is one execution-time category of the breakdown.
type Bucket int

// The breakdown categories, in presentation (stack) order.
const (
	// Useful is committed computation (Ctx.Work outside or inside a
	// transaction that eventually commits).
	Useful Bucket = iota
	// ReadStall is memory-system time of completed loads.
	ReadStall
	// WriteStall is memory-system time of completed stores (including log
	// write stalls, which ride on store latency).
	WriteStall
	// ConflictStall is time trapped in the contention manager on a
	// conflicting access (including the losing access of an abort).
	ConflictStall
	// StallBackoff is randomized backoff between conflict retries of an
	// access that eventually succeeds or aborts.
	StallBackoff
	// AbortBackoff is randomized backoff after an abort, before the next
	// attempt begins.
	AbortBackoff
	// Wasted is work performed inside an attempt that later aborted: its
	// Begin/Useful/ReadStall/WriteStall cycles are reclassified here.
	Wasted
	// Begin is transaction-begin overhead (register checkpoint, signature
	// or token-state init).
	Begin
	// Commit is commit overhead: fast commits' constant time and software
	// token release's log walk.
	Commit
	// LogUnroll is the abort handler's log walk restoring old values.
	LogUnroll
	// Barrier is scheduler wait: lock acquire/release, syscall traps,
	// voluntary yields, and core idle time waiting for the next runnable
	// thread.
	Barrier
	// CtxSwitch is context-switch cost (flash-OR or signature swap).
	CtxSwitch

	// NumBuckets bounds the Bucket space; it is not itself a category.
	NumBuckets
)

// String names the bucket as the stable snake_case key used in JSON output.
func (k Bucket) String() string {
	switch k {
	case Useful:
		return "useful"
	case ReadStall:
		return "read_stall"
	case WriteStall:
		return "write_stall"
	case ConflictStall:
		return "conflict_stall"
	case StallBackoff:
		return "stall_backoff"
	case AbortBackoff:
		return "abort_backoff"
	case Wasted:
		return "wasted"
	case Begin:
		return "begin"
	case Commit:
		return "commit"
	case LogUnroll:
		return "log_unroll"
	case Barrier:
		return "barrier"
	case CtxSwitch:
		return "ctx_switch"
	case NumBuckets:
		panic("attr: NumBuckets is not a bucket")
	default:
		panic("attr: unknown bucket")
	}
}

// InAttempt reports whether cycles of this bucket belong to the enclosing
// transaction attempt — charged to a pending frame and reclassified as
// Wasted if the attempt aborts. Conflict and backoff time keeps its own
// category even inside a doomed attempt (the paper separates those stacks),
// and commit/unroll/scheduler time is attributed when the attempt's fate is
// already known.
func (k Bucket) InAttempt() bool {
	switch k {
	case Useful, ReadStall, WriteStall, Begin:
		return true
	case ConflictStall, StallBackoff, AbortBackoff, Wasted, Commit, LogUnroll, Barrier, CtxSwitch, NumBuckets:
		return false
	default:
		return false
	}
}

// Buckets lists every category in stack order.
func Buckets() []Bucket {
	out := make([]Bucket, NumBuckets)
	for i := range out {
		out[i] = Bucket(i)
	}
	return out
}

// BucketNames lists every category's name in stack order.
func BucketNames() []string {
	out := make([]string, NumBuckets)
	for i := range out {
		out[i] = Bucket(i).String()
	}
	return out
}

// Breakdown accumulates cycles per bucket. The zero value is ready to use.
type Breakdown struct {
	c [NumBuckets]mem.Cycle
}

// Charge adds n cycles to bucket k.
func (b *Breakdown) Charge(k Bucket, n mem.Cycle) { b.c[k] += n }

// Get returns the cycles charged to bucket k.
func (b *Breakdown) Get(k Bucket) mem.Cycle { return b.c[k] }

// Total returns the sum over all buckets.
func (b *Breakdown) Total() mem.Cycle {
	var sum mem.Cycle
	for _, v := range b.c {
		sum += v
	}
	return sum
}

// Merge adds o's cycles into b.
func (b *Breakdown) Merge(o *Breakdown) {
	for i, v := range o.c {
		b.c[i] += v
	}
}

// Reset zeroes every bucket.
func (b *Breakdown) Reset() {
	for i := range b.c {
		b.c[i] = 0
	}
}

// Map renders the breakdown as bucket-name → cycles for JSON output. Every
// bucket is present, zero or not: consumers can always distinguish "zero
// cycles" from "category unknown to this producer" (the ambiguity the trace
// schema's omitempty bug showed).
func (b *Breakdown) Map() map[string]uint64 {
	out := make(map[string]uint64, NumBuckets)
	for i, v := range b.c {
		out[Bucket(i).String()] = uint64(v)
	}
	return out
}
