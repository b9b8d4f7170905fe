package main

// Example runs the program and pins what it prints: the write, migration,
// cache read and demand fetch of one file. Virtual time makes the output a
// pure function of the code.
func Example() {
	main()
	// Output:
	// wrote 5 MB to the disk farm in 5.22 virtual s
	// migrated 5.0 MB to the MO jukebox in 47.39 virtual s (6 segment copyouts)
	// read from the segment cache in 0.076 virtual s
	// demand fetch from tertiary storage took 3.46 virtual s (first access)
	// the next read hits the refilled cache: 0.000 virtual s
	// verified 5 MB byte-for-byte across the hierarchy
}
