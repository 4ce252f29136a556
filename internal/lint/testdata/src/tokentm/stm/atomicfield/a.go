// Package atomicfield exercises the atomicfield analyzer: the ban on
// function-style sync/atomic calls (typed atomics make the mixed-access bug
// a compile error) and CompareAndSwap retry-loop hygiene (the static form
// of the PR-6 upgrade-herd lesson).
package atomicfield

import (
	"runtime"
	"sync/atomic"
)

// Counter's hits field is a plain word maintained with function-style
// sync/atomic, so nothing stops another line from reading it plainly; the
// ban fires at the atomic call. typed is the accepted form.
type Counter struct {
	hits  uint64
	typed atomic.Uint64
}

func (c *Counter) Hit() {
	atomic.AddUint64(&c.hits, 1) // want `function-style sync/atomic call atomic\.AddUint64; use a typed atomic`
	c.typed.Add(1)
}

func (c *Counter) Read() uint64 {
	return atomic.LoadUint64(&c.hits) + c.typed.Load() // want `function-style sync/atomic call atomic\.LoadUint64`
}

// Gate covers the function-style CAS (expected value is the second
// argument, after the address): the calls are banned, and the loop hygiene
// rules still read them correctly — old is re-loaded, the loop yields.
type Gate struct {
	word uint64
}

func openGate(g *Gate) {
	for {
		old := atomic.LoadUint64(&g.word)                     // want `function-style sync/atomic call atomic\.LoadUint64`
		if atomic.CompareAndSwapUint64(&g.word, old, old|1) { // want `function-style sync/atomic call atomic\.CompareAndSwapUint64`
			return
		}
		runtime.Gosched()
	}
}

// casStale is the seeded livelock: the expected value is loaded once before
// the loop, so after the first failed CAS it can never match again — and
// the loop spins without backoff.
func casStale(w *atomic.Uint64) {
	old := w.Load()
	for { // want `unbounded CompareAndSwap retry loop without backoff`
		if w.CompareAndSwap(old, old+1) { // want `never re-loads its expected value old`
			return
		}
	}
}

// casGood re-loads inside the loop and yields between attempts.
func casGood(w *atomic.Uint64) {
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old+1) {
			return
		}
		runtime.Gosched()
	}
}

// casBounded: a bounded spin is exempt from the backoff rule.
func casBounded(w *atomic.Uint64) bool {
	for i := 0; i < 8; i++ {
		old := w.Load()
		if w.CompareAndSwap(old, old|1) {
			return true
		}
	}
	return false
}

// pause stands in for the protocol's doom-or-yield helpers.
//
//tokentm:backoff
func pause() { runtime.Gosched() }

// casAnnotatedBackoff satisfies the backoff rule through a
// //tokentm:backoff-annotated function.
func casAnnotatedBackoff(w *atomic.Uint64) {
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old+2) {
			return
		}
		pause()
	}
}

// casFlip: a constant expected value is a state flip, so the re-load rule
// is vacuous; panic on a broken invariant counts as doom.
func casFlip(w *atomic.Uint64) {
	for !w.CompareAndSwap(0, 1) {
		if w.Load() > 1 {
			panic("corrupt state word")
		}
		runtime.Gosched()
	}
}
