package main

// Example runs the program and pins what it prints: the hourly checkpoints,
// their migration to the jukebox and the restart from an archived one.
// Virtual time makes the output a pure function of the code.
func Example() {
	main()
	// Output:
	// hour  0: wrote 4 MB checkpoint in  4.17 virtual s  (clean segs: 32, migrated so far:  0 MB)
	// hour  1: wrote 4 MB checkpoint in  4.18 virtual s  (clean segs: 28, migrated so far:  0 MB)
	// hour  2: wrote 4 MB checkpoint in  4.17 virtual s  (clean segs: 24, migrated so far:  0 MB)
	// hour  3: wrote 4 MB checkpoint in  4.18 virtual s  (clean segs: 20, migrated so far:  0 MB)
	// hour  4: wrote 4 MB checkpoint in  4.17 virtual s  (clean segs: 16, migrated so far:  0 MB)
	// hour  5: wrote 4 MB checkpoint in  4.19 virtual s  (clean segs: 12, migrated so far: 16 MB)
	// hour  6: wrote 4 MB checkpoint in  4.19 virtual s  (clean segs:  8, migrated so far: 20 MB)
	// hour  7: wrote 4 MB checkpoint in  8.07 virtual s  (clean segs:  9, migrated so far: 24 MB)
	// hour  8: wrote 4 MB checkpoint in  4.20 virtual s  (clean segs:  9, migrated so far: 24 MB)
	// hour  9: wrote 4 MB checkpoint in  7.21 virtual s  (clean segs:  9, migrated so far: 24 MB)
	//
	// restarting from /ckpt/state-002 (archived)...
	// restored 4 MB in 40.5 virtual s (5 segment fetches from the jukebox); state verified
}
