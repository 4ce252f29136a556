package main

// Example runs the program and pins its whole output: the hot counter, the
// per-thread counters and the double-entry bookkeeping line.
func Example() {
	main()
	// Output:
	// simulated 25657 cycles on 4 cores (TokenTM)
	// hot counter = 400 (want 400)
	//   thread 0 private counter = 100
	//   thread 1 private counter = 100
	//   thread 2 private counter = 100
	//   thread 3 private counter = 100
	// conflicts=24 stalls=24 aborts=6
	// fast commits=400 software commits=0
	// double-entry bookkeeping invariant holds: all tokens returned
}
