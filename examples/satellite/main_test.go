package main

// Example runs the program and pins what it prints: the namespace-driven
// migration and the two cold analyses. Virtual time makes the output a pure
// function of the code.
func Example() {
	main()
	// Output:
	// namespace migration staged 12.1 MB
	//   /sat/avhrr    -> tertiary
	//   /sat/landsat  -> tertiary
	//   /sat/goes     -> disk
	// cold analysis, no prefetch      : read 6.0 MB in 28.9 virtual s (7 jukebox fetches so far)
	// cold analysis, unit prefetch    : read 6.0 MB in 18.6 virtual s (14 jukebox fetches so far)
	// prefetch driven by namespace clustering cut analysis latency by 36%
}
