package main

// Example runs the program and pins what it prints: the versioned relation,
// the migration of its dormant versions and the time-travel scan. Virtual
// time makes the output a pure function of the code.
func Example() {
	main()
	// Output:
	// relation holds 94 pages (376 KB); 3000 keys, up to 4 versions each
	// migrated 0.3 MB of dormant tuple versions to the jukebox
	// 100 current-version reads: 0.23 virtual s (0 tertiary fetches)
	// time-travel scan verified 31 original tuples in 3.5 virtual s (1 tertiary fetches)
}
