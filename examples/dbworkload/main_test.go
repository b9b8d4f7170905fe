package main

// Example runs the program and pins what it prints: the database relation,
// its block-range migration and the hot and historical queries. Virtual time
// makes the output a pure function of the code.
func Example() {
	main()
	// Output:
	// loaded 4096-page relation (16 MB)
	// ran 400 queries against the newest 410 pages
	// tracker holds 16 access-range records for the relation
	// migrated 14.5 MB of dormant tuples; relation now 392 pages on disk, 3704 on tertiary
	// 100 hot-page queries after migration: 5.19 virtual s (51.9 ms/query, 1 tertiary fetches)
	// 100 historical queries (cold region): 48.97 virtual s (15 tertiary fetches)
	// block-range migration kept the hot working set 9x faster than whole-file migration would have
}
