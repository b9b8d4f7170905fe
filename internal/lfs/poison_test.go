package lfs

// Every block returned to the free list is overwritten with 0xDB while this
// package's tests run, so a *buf or slice used after its release corrupts
// data deterministically and the content and fsck checks catch it.
func init() { poisonFreed = true }
