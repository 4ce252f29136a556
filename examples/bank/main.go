// Bank: concurrent money transfers as transactions, on every HTM variant.
//
// Each thread repeatedly picks two accounts and moves money atomically. The
// total balance is invariant under serializable execution, so the example
// doubles as a liveness/correctness demonstration: aborts and retries are
// frequent under this contention, yet no money is created or destroyed on
// any of the paper's five HTM systems.
package main

import (
	"fmt"
	"math/rand"

	"tokentm"
)

const (
	accounts  = 64
	initial   = 1_000
	threads   = 8
	transfers = 200
)

func acct(i int) tokentm.Addr {
	return tokentm.Addr(0x100000 + i*tokentm.BlockBytes)
}

func run(v tokentm.Variant) {
	sys := tokentm.New(tokentm.Config{Variant: v, Cores: 8, Seed: 42, RetryLimit: 8})
	for i := 0; i < accounts; i++ {
		sys.StoreWord(acct(i), initial)
	}

	for t := 0; t < threads; t++ {
		seed := int64(t + 1)
		sys.Spawn(func(tc *tokentm.Ctx) {
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < transfers; k++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := uint64(1 + rng.Intn(50))
				tc.Atomic(func(tx *tokentm.Tx) {
					balance := tx.Load(acct(from))
					if balance < amount {
						return // insufficient funds; commit empty
					}
					tx.Store(acct(from), balance-amount)
					tx.Store(acct(to), tx.Load(acct(to))+amount)
				})
			}
		})
	}
	cycles := sys.Run()

	var total uint64
	for i := 0; i < accounts; i++ {
		total += sys.Load(acct(i))
	}
	d := sys.Detail("bank", v)
	status := "OK"
	if total != accounts*initial {
		status = "MONEY LOST!"
	}
	fmt.Printf("%-16s total=%d (%s)  cycles=%-9d conflicts=%-5d aborts=%-4d false=%d\n",
		v, total, status, cycles, d.Metrics.Conflicts, len(d.AbortRecs), d.Metrics.FalseConflicts)
}

func main() {
	fmt.Printf("%d accounts x %d, %d threads x %d transfers\n\n", accounts, initial, threads, transfers)
	for _, v := range tokentm.Variants() {
		run(v)
	}
}
