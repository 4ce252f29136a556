package main

// Example runs the program and pins its whole output, including the
// consistency line and the fast-release count.
func Example() {
	main()
	// Output:
	// simulated 157500 cycles; 16 customers booked 960 trips (7189 resource bookings)
	// revenue collected: 559936
	// consistency: every record satisfies capacity + bookings == initial
	// transactions: 960 committed, avg read set 8.5 blocks, avg write set 8.5 blocks
	// conflicts=677 aborts=137
	// fast token release: 960/960 commits
}
