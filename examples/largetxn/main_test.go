package main

// Example runs the program and pins its whole output: the elephant's
// writes survive, the mice stay fast, the transaction survives page-out and
// page-in, and the double-entry bookkeeping invariant holds.
func Example() {
	main()
	// Output:
	// simulated 1023883 cycles
	// elephant wrote 2000 blocks (L1 holds 512): all intact = true
	// mice committed 300 small transactions: counter=300
	// fast commits=340 software commits=1 (the elephant and the
	//   context-switched helper transactions release in software; mice stay fast)
	// mice fast-release commits: 300/300 — the unbounded transaction cost them nothing
	// paging demo: transaction survived page-out/page-in, data = 123,456
	// double-entry bookkeeping invariant holds
}
