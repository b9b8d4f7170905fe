package stripe

// Every buffer returned to a farm's free list is overwritten with 0xDB
// while this package's tests run, so a slice used after its release
// corrupts data deterministically and the content checks catch it.
func init() { poisonFreed = true }
