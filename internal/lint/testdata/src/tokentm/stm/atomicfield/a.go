// Package atomicfield exercises the atomicfield analyzer: the ban on
// function-style sync/atomic calls (typed atomics make the mixed-access bug
// a compile error).
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

// Gate covers the function-style load and CAS inside a retry loop: each
// call is banned on its own line.
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
