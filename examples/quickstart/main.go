// Quickstart: build a TokenTM system, run concurrent transactions, and
// inspect the result — the smallest end-to-end use of the public API.
//
// It reproduces the flavor of the paper's Figure 2: several threads
// transactionally read and write shared blocks while TokenTM tracks every
// token with double-entry bookkeeping.
package main

import (
	"fmt"

	"tokentm"
)

func main() {
	// A 4-core machine running the TokenTM HTM.
	sys := tokentm.New(tokentm.Config{Variant: tokentm.VariantTokenTM, Cores: 4})

	// Shared data: one counter per 64-byte block to avoid false sharing,
	// plus one hot counter everybody updates.
	const threads = 4
	hot := tokentm.Addr(0x1000)
	private := func(i int) tokentm.Addr { return tokentm.Addr(0x10000 + i*tokentm.BlockBytes) }

	for i := 0; i < threads; i++ {
		i := i
		sys.Spawn(func(tc *tokentm.Ctx) {
			for k := 0; k < 100; k++ {
				// Atomic retries automatically on conflict aborts.
				tc.Atomic(func(tx *tokentm.Tx) {
					// Read-modify-write the contended counter...
					tx.Store(hot, tx.Load(hot)+1)
					// ...and this thread's own statistics block.
					tx.Store(private(i), tx.Load(private(i))+1)
				})
				tc.Work(200) // non-transactional compute between transactions
			}
		})
	}

	cycles := sys.Run()

	fmt.Printf("simulated %d cycles on %d cores (%s)\n", cycles, 4, sys.HTM.Name())
	fmt.Printf("hot counter = %d (want %d)\n", sys.Load(hot), threads*100)
	for i := 0; i < threads; i++ {
		fmt.Printf("  thread %d private counter = %d\n", i, sys.Load(private(i)))
	}

	d := sys.Detail("quickstart", tokentm.VariantTokenTM)
	fmt.Printf("conflicts=%d stalls=%d aborts=%d\n", d.Metrics.Conflicts, d.Metrics.Stalls, len(d.AbortRecs))
	if tok := sys.TokenTM(); tok != nil {
		fmt.Printf("fast commits=%d software commits=%d\n", d.FastCommits, d.SlowCommits)
		if err := tok.CheckBookkeeping(); err != nil {
			fmt.Println("bookkeeping violation:", err)
			return
		}
		fmt.Println("double-entry bookkeeping invariant holds: all tokens returned")
	}
}
