package lfs

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dev"
)

// Every block returned to the free list is overwritten with 0xDB, and every
// dropped buffer header poisoned, while this package's tests run, so a *buf
// or slice used after its release corrupts data deterministically and the
// content and fsck checks catch it. And every hand-over by reference — the
// disk's kept, shared or lent extents, fillBlocks' lent views among them —
// is audited (dev.HandOvers): one that changes afterwards fails the run at
// its end.
func init() {
	poisonFreed = true
	dev.Audit = &dev.HandOvers{}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if err := dev.Audit.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "hand-over audit:", err)
		code = 1
	}
	os.Exit(code)
}
