package stripe

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dev"
)

// Every buffer returned to a farm's free list is overwritten with 0xDB
// while this package's tests run, so a slice used after its release
// corrupts data deterministically and the content checks catch it. And
// every hand-over by reference — a disk's kept, shared or lent extents, a
// pending parity's lanes, a lane writeParity was lent — is audited
// (dev.HandOvers): one that changes afterwards fails the run at its end.
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
