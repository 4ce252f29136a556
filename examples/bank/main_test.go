package main

// Example runs the program and pins its whole output: every variant keeps
// the money total, at the cycle and conflict counts the simulator yields.
func Example() {
	main()
	// Output:
	// 64 accounts x 1000, 8 threads x 200 transfers
	//
	// TokenTM          total=64000 (OK)  cycles=114834    conflicts=589   aborts=128  false=0
	// TokenTM_NoFast   total=64000 (OK)  cycles=71684     conflicts=534   aborts=127  false=0
	// LogTM-SE_Perf    total=64000 (OK)  cycles=154438    conflicts=716   aborts=168  false=0
	// LogTM-SE_2xH3    total=64000 (OK)  cycles=154438    conflicts=716   aborts=168  false=0
	// LogTM-SE_4xH3    total=64000 (OK)  cycles=154438    conflicts=716   aborts=168  false=0
}
